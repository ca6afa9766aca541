//! Integration: execution graphs — capture, instantiate, replay with
//! dynamic placement, IR-level fusion, and parameterized re-launch —
//! checked bit-exactly against eager stream execution.

use proptest::prelude::*;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
use simt_kernels::LaunchSpec;
use simt_runtime::{fuse, GraphBuilder, NodeId, Runtime, RuntimeConfig, RuntimeError};

mod common;

/// Build the pipeline as a graph: copy-ins → launch chain → copy-out.
/// Returns the graph and the copy-out node.
fn pipeline_graph(p: &Pipeline) -> (simt_runtime::ExecGraph, NodeId) {
    let mut b = GraphBuilder::new();
    let copies: Vec<NodeId> = p
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    let mut prev = copies;
    for stage in &p.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    let out = b.copy_out(p.out_off, p.out_len, &prev);
    (b.finish().unwrap(), out)
}

/// Run the pipeline eagerly on one stream of a fresh runtime; return
/// (output, makespan).
fn eager_pipeline(p: &Pipeline) -> (Vec<u32>, u64) {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    for (dst, words) in &p.inputs {
        s.copy_in(*dst, words);
    }
    for stage in &p.stages {
        s.launch(stage.clone());
    }
    let out = s.copy_out(p.out_off, p.out_len);
    rt.synchronize().unwrap();
    (out.wait().unwrap(), rt.stats().makespan_cycles)
}

#[test]
fn fused_pipeline_replay_is_bit_exact_and_beats_the_eager_stream() {
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let p = Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0);
    let (graph, _) = pipeline_graph(&p);

    let (eager_out, eager_makespan) = eager_pipeline(&p);
    assert_eq!(eager_out, p.expected, "eager oracle");

    // Unfused replay: same DAG, dynamic placement, bit-exact.
    let rt = Runtime::new(RuntimeConfig::default());
    let exec = rt.instantiate(graph.clone()).unwrap();
    let unfused = rt.replay(&exec).unwrap();
    assert_eq!(unfused.outputs.len(), 1);
    assert_eq!(unfused.outputs[0].1, p.expected, "unfused replay");

    // Fused replay: the 3-stage chain collapses into one launch, every
    // fused edge drops its shared-memory store/load handoff pair, and
    // the modeled span beats the unfused stream schedule.
    let (fused_graph, report) = fuse(&graph);
    assert_eq!(report.launches_fused, 2, "{report:?}");
    assert!(report.stores_elided >= 2, "{report:?}");
    assert!(report.loads_eliminated >= 2, "{report:?}");
    let rt2 = Runtime::new(RuntimeConfig::default());
    let fexec = rt2.instantiate(fused_graph).unwrap();
    let fused = rt2.replay(&fexec).unwrap();
    assert_eq!(fused.outputs[0].1, p.expected, "fused replay");
    assert!(
        fused.span_cycles < eager_makespan,
        "fused span {} must beat the eager stream makespan {}",
        fused.span_cycles,
        eager_makespan
    );
    assert!(
        fused.span_cycles < unfused.span_cycles,
        "fusion must shrink the replay span ({} vs {})",
        fused.span_cycles,
        unfused.span_cycles
    );
}

#[test]
fn capture_records_the_stream_into_a_replayable_graph() {
    let x = int_vector(128, 5);
    let y = int_vector(128, 6);
    let w = int_vector(128, 7);
    let p = Pipeline::saxpy_dot(-3, &x, &y, &w, 0);

    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    s.begin_capture().unwrap();
    for (dst, words) in &p.inputs {
        s.copy_in(*dst, words);
    }
    for stage in &p.stages {
        let h = s.launch(stage.clone());
        // Captured commands do not execute; their handles say so.
        assert!(matches!(h.wait(), Err(RuntimeError::Captured)));
    }
    let out = s.copy_out(p.out_off, p.out_len);
    assert!(matches!(out.wait(), Err(RuntimeError::Captured)));
    let graph = s.end_capture().unwrap();
    assert_eq!(graph.len(), p.inputs.len() + p.stages.len() + 1);
    assert_eq!(graph.launches(), 2);

    // Nothing ran during capture.
    assert_eq!(rt.stats().launches(), 0);

    // The captured chain fuses and replays bit-exactly.
    let (fused, report) = fuse(&graph);
    assert_eq!(report.launches_fused, 1, "{report:?}");
    assert!(report.stores_elided >= 1, "{report:?}");
    let exec = rt.instantiate(fused).unwrap();
    let replay = rt.replay(&exec).unwrap();
    assert_eq!(replay.outputs[0].1, p.expected);
    // The stream is live again after end_capture.
    let spec = LaunchSpec::sum(&int_vector(64, 1));
    let expected = spec.expected.clone();
    let (off, len) = (spec.out_off, spec.out_len);
    s.launch(spec);
    let out = s.copy_out(off, len);
    rt.synchronize().unwrap();
    assert_eq!(out.wait().unwrap(), expected);
}

#[test]
fn capture_events_order_nodes_across_streams() {
    let rt = Runtime::new(RuntimeConfig::default());
    let a = rt.stream();
    let b = rt.stream();
    a.begin_capture().unwrap();
    b.begin_capture().unwrap();

    let x = int_vector(64, 3);
    let done = rt.event();
    a.launch(LaunchSpec::sum(&x)); // node 0
    a.record_event(&done);
    b.wait_event(&done);
    b.launch(LaunchSpec::sum(&x)); // node 1, depends on node 0
    let graph = a.end_capture().unwrap();
    assert_eq!(graph.len(), 2);
    let n1 = graph.node(NodeId::from_index(1));
    assert_eq!(n1.deps, vec![NodeId::from_index(0)]);
    // The captured event never signals a live waiter.
    assert!(!done.is_signaled());
}

#[test]
fn synchronize_on_a_capturing_stream_does_not_deadlock() {
    let rt = Runtime::new(RuntimeConfig::default());
    let s = rt.stream();
    s.begin_capture().unwrap();
    s.launch(LaunchSpec::sum(&int_vector(64, 1)));
    // The fence would be captured, never executed: synchronize must
    // return immediately instead of waiting on it forever.
    s.synchronize();
    let graph = s.end_capture().unwrap();
    assert_eq!(graph.launches(), 1);
}

#[test]
fn capture_misuse_is_typed() {
    let rt = Runtime::new(RuntimeConfig::default());
    let a = rt.stream();
    let b = rt.stream();
    // Ending with no capture in progress.
    assert!(matches!(a.end_capture(), Err(RuntimeError::Capture(_))));
    a.begin_capture().unwrap();
    // Double begin on the same stream.
    assert!(matches!(a.begin_capture(), Err(RuntimeError::Capture(_))));
    // Ending on a non-origin participant.
    b.begin_capture().unwrap();
    assert!(matches!(b.end_capture(), Err(RuntimeError::Capture(_))));
    // Ending an empty capture is a typed error too.
    assert!(matches!(a.end_capture(), Err(RuntimeError::Capture(_))));
    // The failed empty end still tore the session down: a fresh capture
    // works end to end.
    a.begin_capture().unwrap();
    a.copy_in(0, &[1, 2, 3]);
    let g = a.end_capture().unwrap();
    assert_eq!(g.len(), 1);
}

#[test]
fn replay_rebinds_copy_in_payloads_without_recompiling() {
    let x = int_vector(64, 8);
    let y = int_vector(64, 9);
    let (spec, inputs) = LaunchSpec::saxpy_ir(5, &x, &y).detach_inputs();
    let (off, len) = (spec.out_off, spec.out_len);
    let mut b = GraphBuilder::new();
    let ins: Vec<NodeId> = inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    let l = b.launch(spec, &ins);
    b.copy_out(off, len, &[l]);
    let graph = b.finish().unwrap();

    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let mut exec = rt.instantiate(graph).unwrap();
    let first = rt.replay(&exec).unwrap();
    assert_eq!(
        first.outputs[0].1,
        LaunchSpec::saxpy(5, &x, &y).expected,
        "first replay"
    );

    // New inputs, same compiled artifact.
    let x2 = int_vector(64, 100);
    let y2 = int_vector(64, 200);
    let new_inputs = LaunchSpec::saxpy(5, &x2, &y2).detach_inputs().1;
    for (node, (_, words)) in ins.iter().zip(new_inputs) {
        exec.set_copy_in(*node, words).unwrap();
    }
    let misses_before = rt.compile_cache().misses();
    let second = rt.replay(&exec).unwrap();
    assert_eq!(second.outputs[0].1, LaunchSpec::saxpy(5, &x2, &y2).expected);
    assert_eq!(
        rt.compile_cache().misses(),
        misses_before,
        "re-binding must not recompile"
    );
    assert_eq!(second.compile_hits, 1);

    // Misuse is typed.
    assert!(matches!(
        exec.set_copy_in(l, vec![0]),
        Err(RuntimeError::Graph(_))
    ));
    assert!(matches!(
        exec.set_copy_in(NodeId::from_index(99), vec![0]),
        Err(RuntimeError::Graph(_))
    ));
    assert!(matches!(
        exec.set_copy_in(ins[0], vec![0; 1 << 20]),
        Err(RuntimeError::CopyOutOfBounds { .. })
    ));
}

#[test]
fn replay_places_independent_branches_across_the_pool() {
    // Two independent fused pipelines at disjoint buffer bases: the
    // replay scheduler must spread them over both devices.
    let x = int_vector(256, 1);
    let y = int_vector(256, 2);
    let pa = Pipeline::saxpy_scale_sum(3, 1, &x, &y, 0);
    let pb = Pipeline::saxpy_scale_sum(-5, 2, &x, &y, 4096);
    let mut b = GraphBuilder::new();
    for p in [&pa, &pb] {
        let copies: Vec<NodeId> = p
            .inputs
            .iter()
            .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
            .collect();
        let mut prev = copies;
        for stage in &p.stages {
            prev = vec![b.launch(stage.clone(), &prev)];
        }
        b.copy_out(p.out_off, p.out_len, &prev);
    }
    let graph = b.finish().unwrap();
    let (fused, report) = fuse(&graph);
    assert_eq!(report.launches_fused, 4, "both chains fuse: {report:?}");

    let rt = Runtime::new(RuntimeConfig::default());
    let exec = rt.instantiate(fused).unwrap();
    let replay = rt.replay(&exec).unwrap();
    assert_eq!(replay.output(replay.outputs[0].0).unwrap(), pa.expected);
    assert_eq!(replay.outputs[1].1, pb.expected);
    let spread = replay.device_spread(rt.config().devices);
    assert!(
        spread.iter().all(|&n| n > 0),
        "dynamic placement must use every device: {spread:?}"
    );
    let stats = rt.stats();
    assert!(stats.devices.iter().all(|d| d.placements > 0));
    assert_eq!(
        stats.devices.iter().map(|d| d.placements).sum::<u64>(),
        replay.placements.len() as u64
    );
}

#[test]
fn bounded_compile_cache_evicts_and_recounts() {
    let mut cfg = RuntimeConfig::with_devices(1);
    cfg.compile_cache_capacity = std::num::NonZeroUsize::new(2);
    let rt = Runtime::new(cfg);
    let s = rt.stream();
    let x = int_vector(64, 1);
    let y = int_vector(64, 2);
    // Three distinct kernels through a 2-entry cache.
    for a in [2, 3, 4] {
        s.launch(LaunchSpec::saxpy_ir(a, &x, &y));
    }
    rt.synchronize().unwrap();
    let stats = rt.stats();
    assert_eq!(stats.compile_misses(), 3);
    assert!(stats.compile_evictions >= 1, "{}", stats.compile_evictions);
    assert_eq!(rt.compile_cache().len(), 2);
}

#[test]
fn shutdown_during_replay_resolves_with_shutdown_not_a_hang() {
    let x = int_vector(128, 1);
    let y = int_vector(128, 2);
    let p = Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0);
    let (graph, _) = pipeline_graph(&p);
    let rt = Runtime::new(RuntimeConfig::with_devices(2));
    let exec = rt.instantiate(graph).unwrap();
    let warm = rt.replay(&exec).unwrap();
    assert_eq!(warm.outputs[0].1, p.expected, "pre-shutdown oracle");

    let s = rt.stream();
    // Work queued before the shutdown may complete or may be drained;
    // either way its handle must resolve rather than hang.
    let before = s.launch(LaunchSpec::saxpy(3, &x, &y));
    let err = std::thread::scope(|scope| {
        let replayer = scope.spawn(|| loop {
            match rt.replay(&exec) {
                Ok(r) => assert_eq!(r.outputs[0].1, p.expected, "live replays stay bit-exact"),
                Err(e) => return e,
            }
        });
        rt.shutdown();
        replayer.join().unwrap()
    });
    assert!(matches!(err, RuntimeError::Shutdown), "{err:?}");
    match before.wait() {
        Ok(_) | Err(RuntimeError::Shutdown) => {}
        Err(other) => panic!("pre-shutdown launch resolved {other:?}"),
    }
    // Everything enqueued after the shutdown resolves Shutdown
    // immediately — on old and new streams alike.
    let after = s.launch(LaunchSpec::saxpy(3, &x, &y));
    assert!(matches!(after.wait(), Err(RuntimeError::Shutdown)));
    let fresh = rt.stream().copy_out(0, 4);
    assert!(matches!(fresh.wait(), Err(RuntimeError::Shutdown)));
    // And replay keeps refusing deterministically.
    assert!(matches!(rt.replay(&exec), Err(RuntimeError::Shutdown)));
}

/// The eager twin of a replay: enqueue the graph's nodes on one stream
/// in the replay's own (deterministic, topological) order.
fn eager_twin(rt: &Runtime, graph: &simt_runtime::ExecGraph) -> Vec<(NodeId, Vec<u32>)> {
    use simt_graph::GraphOp;
    let s = rt.stream();
    let mut outs = Vec::new();
    for &id in graph.topo_order() {
        match &graph.node(id).op {
            GraphOp::CopyIn { dst, data } => s.copy_in(*dst, data),
            GraphOp::CopyOut { src, len } => outs.push((id, s.copy_out(*src, *len))),
            GraphOp::Launch(spec) => {
                s.launch((**spec).clone());
            }
        }
    }
    rt.synchronize().unwrap();
    outs.into_iter()
        .map(|(id, h)| (id, h.wait().unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying a graph is bit-exact against eager stream execution of
    /// the same DAG, for randomized DAGs of vector / reduce / fir
    /// launches with random fan-in.
    #[test]
    fn replay_matches_eager_execution(
        picks in proptest::collection::vec((0u8..4, 1u64..1000, any::<u8>()), 2..7),
    ) {
        let n = 64usize;
        let taps = lowpass_taps(8);
        let mut b = GraphBuilder::new();
        let mut launches: Vec<NodeId> = Vec::new();
        for (family, seed, dep_mask) in picks {
            // Depend on a random subset of the last three launches.
            let deps: Vec<NodeId> = launches
                .iter()
                .rev()
                .take(3)
                .enumerate()
                .filter(|(i, _)| dep_mask >> i & 1 == 1)
                .map(|(_, &d)| d)
                .collect();
            let x = int_vector(n, seed);
            let y = int_vector(n, seed + 1);
            let spec = match family {
                0 => LaunchSpec::saxpy_ir(seed as i32 % 17 - 8, &x, &y),
                1 => LaunchSpec::sum_ir(&x),
                2 => LaunchSpec::dot_ir(&x, &y),
                _ => LaunchSpec::fir_ir(&q15_signal(n + 7, seed), &taps, n),
            };
            let (off, len) = (spec.out_off, spec.out_len);
            let l = b.launch(spec, &deps);
            b.copy_out(off, len, &[l]);
            launches.push(l);
        }
        let graph = b.finish().unwrap();

        let rt = Runtime::new(RuntimeConfig::default());
        let exec = rt.instantiate(graph.clone()).unwrap();
        let replay = rt.replay(&exec).unwrap();
        let eager = eager_twin(&rt, &graph);
        prop_assert_eq!(replay.outputs.len(), eager.len());
        for ((rid, rout), (eid, eout)) in replay.outputs.iter().zip(&eager) {
            prop_assert_eq!(rid, eid);
            prop_assert_eq!(rout, eout, "node {} diverged", rid);
        }
        prop_assert!(common::per_stream_ordering_holds(&common::placements(&rt)));
    }
}

// ---- the replay buffer: all of memory_words, zeroed for each replay --

#[test]
fn a_copy_in_payload_may_fill_the_whole_device_buffer() {
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let memory_words = rt.config().device.memory_words;
    // Four words in, sixteen out: at instantiation nothing reaches past
    // word 16.
    let mut b = GraphBuilder::new();
    let cin = b.copy_in(0, vec![1, 2, 3, 4], &[]);
    let cout = b.copy_out(0, 16, &[cin]);
    let mut exec = rt.instantiate(b.finish().unwrap()).unwrap();
    let mut want = vec![0u32; 16];
    want[..4].copy_from_slice(&[1, 2, 3, 4]);
    assert_eq!(rt.replay(&exec).unwrap().output(cout).unwrap(), want);

    // Longer than the original, inside the copy-out window: every word
    // arrives.
    let sixteen: Vec<u32> = (100..116).collect();
    exec.set_copy_in(cin, sixteen.clone()).unwrap();
    assert_eq!(rt.replay(&exec).unwrap().output(cout).unwrap(), sixteen);

    // Longer than anything the graph addressed at instantiation, still
    // inside the device buffer: legal, and the window shows its sixteen
    // words of it — not a `CopyOutOfBounds` from a buffer sized earlier,
    // nothing truncated, nothing zero-padded.
    let long: Vec<u32> = (0..4000).map(|i| i * 7 + 1).collect();
    exec.set_copy_in(cin, long.clone()).unwrap();
    assert_eq!(rt.replay(&exec).unwrap().output(cout).unwrap(), &long[..16]);
    exec.set_copy_in(cin, vec![9; memory_words]).unwrap();
    assert_eq!(rt.replay(&exec).unwrap().output(cout).unwrap(), [9; 16]);
    // And shrinking again leaves no stale words behind it.
    exec.set_copy_in(cin, vec![5]).unwrap();
    want.fill(0);
    want[0] = 5;
    assert_eq!(rt.replay(&exec).unwrap().output(cout).unwrap(), want);

    // One word past the device buffer is still refused, and the graph
    // keeps the payload it had.
    assert_eq!(
        exec.set_copy_in(cin, vec![0; memory_words + 1]),
        Err(RuntimeError::CopyOutOfBounds {
            offset: 0,
            len: memory_words + 1,
            memory_words
        })
    );
    assert_eq!(rt.replay(&exec).unwrap().output(cout).unwrap(), want);
}

#[test]
fn windows_that_overflow_usize_are_typed_errors_on_both_paths() {
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    let memory_words = rt.config().device.memory_words;
    let oob = |offset, len| RuntimeError::CopyOutOfBounds {
        offset,
        len,
        memory_words,
    };
    // Replay path: refused at instantiation, no wrapped `dst + len`.
    let mut b = GraphBuilder::new();
    b.copy_in(usize::MAX - 1, vec![1, 2, 3], &[]);
    let err = rt.instantiate(b.finish().unwrap()).unwrap_err();
    assert_eq!(err, oob(usize::MAX - 1, 3));
    let mut b = GraphBuilder::new();
    b.copy_out(usize::MAX, 2, &[]);
    let err = rt.instantiate(b.finish().unwrap()).unwrap_err();
    assert_eq!(err, oob(usize::MAX, 2));
    // An empty window at the very end is the largest legal one; a word
    // more through `set_copy_in` is not.
    let mut b = GraphBuilder::new();
    let edge = b.copy_in(memory_words, Vec::new(), &[]);
    let mut exec = rt.instantiate(b.finish().unwrap()).unwrap();
    assert_eq!(exec.set_copy_in(edge, vec![1]), Err(oob(memory_words, 1)));
    assert!(rt.replay(&exec).unwrap().outputs.is_empty());

    // Eager path: the same windows resolve their handles with the same
    // error.
    let s = rt.stream();
    let out = s.copy_out(usize::MAX, 2);
    assert_eq!(out.wait(), Err(oob(usize::MAX, 2)));
    let rt = Runtime::new(RuntimeConfig::with_devices(1));
    rt.stream().copy_in(usize::MAX - 1, &[1, 2, 3]);
    assert_eq!(rt.synchronize(), Err(oob(usize::MAX - 1, 3)));
}

#[test]
fn a_launch_wider_than_the_device_buffer_sees_the_documented_min() {
    // 1024 shared words against a 512-word device buffer: the launch is
    // seeded from, and written back to, the 512 words there are.
    let mut cfg = RuntimeConfig::with_devices(1);
    cfg.device.memory_words = 512;
    let spec = LaunchSpec {
        name: "wide".into(),
        config: simt_core::ProcessorConfig::small(),
        source: simt_kernels::KernelSource::Asm(
            "  stid r1\n  lds r2, [r1+0]\n  addi r2, r2, 1\n  sts [r1+64], r2\n  sts [r1+600], r2\n  exit"
                .into(),
        ),
        inputs: Vec::new(),
        out_off: 64,
        out_len: 64,
        expected: (1..=64).collect(),
    };
    assert!(spec.config.shared_words > cfg.device.memory_words);
    let input: Vec<u32> = (0..64).collect();

    let rt = Runtime::new(cfg.clone());
    let s = rt.stream();
    s.copy_in(0, &input);
    s.launch(spec.clone());
    let eager = s.copy_out(0, 512);
    rt.synchronize().unwrap();
    let eager = eager.wait().unwrap();
    assert_eq!(&eager[64..128], spec.expected.as_slice());
    assert!(eager[128..].iter().all(|&w| w == 0));

    let rt = Runtime::new(cfg);
    let mut b = GraphBuilder::new();
    let cin = b.copy_in(0, input, &[]);
    let l = b.launch(spec, &[cin]);
    let cout = b.copy_out(0, 512, &[l]);
    let exec = rt.instantiate(b.finish().unwrap()).unwrap();
    for _ in 0..2 {
        assert_eq!(rt.replay(&exec).unwrap().output(cout).unwrap(), eager);
    }
    // The buffer is what bounds a copy, whatever the launches declare.
    let mut b = GraphBuilder::new();
    b.copy_out(500, 13, &[]);
    assert!(matches!(
        rt.instantiate(b.finish().unwrap()),
        Err(RuntimeError::CopyOutOfBounds { .. })
    ));
}

#[test]
fn a_replay_that_traps_books_exactly_the_nodes_it_executed() {
    // copy-in → launch → launch (traps) → copy-out: the replay stops at
    // the third node with the device's typed error, and the books hold
    // the two nodes that ran — no more (the copy-out never happened), no
    // fewer (they did occupy their engines).
    let kernel = |name: &str, asm: &str| LaunchSpec {
        name: name.into(),
        config: simt_core::ProcessorConfig::small(),
        source: simt_kernels::KernelSource::Asm(asm.into()),
        inputs: Vec::new(),
        out_off: 0,
        out_len: 0,
        expected: Vec::new(),
    };
    let good = kernel(
        "good",
        "  stid r1\n  lds r2, [r1+0]\n  addi r2, r2, 1\n  sts [r1+64], r2\n  exit",
    );
    // Lane 40 stores to word 1024 of a 1024-word shared memory.
    let trapping = kernel(
        "trapping",
        "  stid r1\n  muli r15, r1, 25\n  sts [r15+24], r1\n  exit",
    );
    let rt = Runtime::new(RuntimeConfig::with_devices(2));
    let mut b = GraphBuilder::new();
    let cin = b.copy_in(0, (0..64).collect(), &[]);
    let first = b.launch(good, &[cin]);
    let second = b.launch(trapping, &[first]);
    b.copy_out(64, 64, &[second]);
    let exec = rt.instantiate(b.finish().unwrap()).unwrap();
    match rt.replay(&exec) {
        Err(RuntimeError::Exec { kernel, .. }) => assert_eq!(kernel, "trapping"),
        other => panic!("expected a typed device trap, got {other:?}"),
    }
    let stats = rt.stats();
    let total = |f: fn(&simt_runtime::DeviceStats) -> u64| stats.devices.iter().map(f).sum::<u64>();
    assert_eq!(total(|d| d.placements), 2);
    assert_eq!((total(|d| d.copies), total(|d| d.launches)), (1, 1));
    assert!(stats.streams.is_empty() && stats.makespan_cycles > 0);
    // The ring says the same: two graph nodes placed, no replay done.
    let events = rt.flight().unwrap().events;
    let placed: Vec<u64> = events
        .iter()
        .filter_map(|r| match r.event {
            simt_profile::Event::Placed {
                stream: None, seq, ..
            } => Some(seq),
            _ => None,
        })
        .collect();
    assert_eq!(placed, [cin.index() as u64, first.index() as u64]);
    assert!(!events
        .iter()
        .any(|r| matches!(r.event, simt_profile::Event::GraphReplayDone { .. })));
}

/// A kernel on the small build (64 threads, 1024 shared words).
fn small_kernel(name: &str, asm: &str) -> LaunchSpec {
    LaunchSpec {
        name: name.into(),
        config: simt_core::ProcessorConfig::small(),
        source: simt_kernels::KernelSource::Asm(asm.into()),
        inputs: Vec::new(),
        out_off: 0,
        out_len: 0,
        expected: Vec::new(),
    }
}

/// Three graphs that would see each other's words through a replay
/// buffer left dirty: one copies in 4 000 words and launches over them,
/// one launches over and copies out words it never wrote, and one
/// copies in 3 000 words, then traps.
fn graphs_that_share_a_buffer() -> [simt_runtime::ExecGraph; 3] {
    let bump = || {
        small_kernel(
            "bump",
            "  stid r1\n  lds r2, [r1+0]\n  addi r2, r2, 1\n  sts [r1+64], r2\n  exit",
        )
    };
    let mut b = GraphBuilder::new();
    let cin = b.copy_in(0, (0..4000).map(|i| i * 3 + 7).collect(), &[]);
    let l = b.launch(bump(), &[cin]);
    b.copy_out(0, 128, &[l]);
    b.copy_out(3900, 100, &[l]);
    let wide = b.finish().unwrap();

    let mut b = GraphBuilder::new();
    let l = b.launch(bump(), &[]);
    b.copy_out(0, 4096, &[l]);
    let unwritten = b.finish().unwrap();

    let mut b = GraphBuilder::new();
    let cin = b.copy_in(0, (0..3000).map(|i| i | 1).collect(), &[]);
    // Lane 40 stores past the 1024 shared words.
    let trap = small_kernel(
        "trapping",
        "  stid r1\n  sts [r1+0], r1\n  muli r15, r1, 25\n  sts [r15+24], r1\n  exit",
    );
    b.launch(trap, &[cin]);
    let trapping = b.finish().unwrap();
    [wide, unwritten, trapping]
}

type Outputs = Result<Vec<(NodeId, Vec<u32>)>, RuntimeError>;

/// What replaying `graph` gives on a fresh two-device runtime.
fn fresh_replay(graph: &simt_runtime::ExecGraph) -> Outputs {
    let rt = Runtime::new(RuntimeConfig::with_devices(2));
    let exec = rt.instantiate(graph.clone()).unwrap();
    rt.replay(&exec).map(|r| r.outputs)
}

#[test]
fn reusing_the_replay_buffer_leaves_nothing_behind() {
    let graphs = graphs_that_share_a_buffer();
    let fresh: Vec<Outputs> = graphs.iter().map(fresh_replay).collect();
    // The oracle itself: the unwritten words read zero, and the trap is
    // the device's typed error.
    let unwritten = &fresh[1].as_ref().unwrap()[0].1;
    assert!(unwritten[..64].iter().all(|&w| w == 0));
    assert!(unwritten[64..128].iter().all(|&w| w == 1));
    assert!(unwritten[128..].iter().all(|&w| w == 0));
    assert!(matches!(fresh[2], Err(RuntimeError::Exec { .. })));

    let rt = Runtime::new(RuntimeConfig::with_devices(2));
    let execs: Vec<_> = graphs
        .iter()
        .map(|g| rt.instantiate(g.clone()).unwrap())
        .collect();
    // The two graphs alternate, with a trapping replay between them.
    for (step, &g) in [0, 2, 1, 0, 1, 2, 0, 2, 1, 1, 0].iter().enumerate() {
        let got = rt.replay(&execs[g]).map(|r| r.outputs);
        assert_eq!(got, fresh[g], "step {step}: graph {g}");
    }
}

#[test]
fn concurrent_replays_each_see_a_clean_buffer() {
    let [wide, unwritten, _] = graphs_that_share_a_buffer();
    let rt = Runtime::new(RuntimeConfig::with_devices(2));
    std::thread::scope(|scope| {
        for graph in [&wide, &unwritten] {
            let rt = &rt;
            scope.spawn(move || {
                let want = fresh_replay(graph);
                let exec = rt.instantiate(graph.clone()).unwrap();
                for round in 0..200 {
                    let got = rt.replay(&exec).map(|r| r.outputs);
                    assert_eq!(got, want, "round {round}");
                }
            });
        }
    });
}
