//! The four workloads: seeded inputs, the wave each one repeats, and
//! the output check.
//!
//! Everything here reaches the system through its public API only
//! (`Runtime`, `Stream`, `GraphBuilder`, `fuse`, `LaunchSpec`,
//! `Pipeline`). Sizes are fixed (they are recorded in `BENCHMARK.json`);
//! the seed draws the data, the scalar constants and the job order.

use crate::spans::Spans;
use simt_graph::GraphOp;
use simt_kernels::iir::Biquad;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::qformat::to_q15;
use simt_kernels::workload::{int_vector, lowpass_taps, q15_matrix, q15_signal};
use simt_kernels::LaunchSpec;
use simt_runtime::{
    fuse, CopyHandle, FusionReport, GraphBuilder, GraphExec, LaunchHandle, NodeId, Runtime,
    RuntimeConfig, Stream,
};
use std::sync::Arc;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "stream_small",
    "stream_heavy",
    "graph_replay",
    "compile_cold",
];

/// Streams every stream workload spreads its jobs over.
pub const STREAMS: usize = 4;
/// A cross-stream event is recorded and waited on after every this
/// many jobs.
pub const EVENT_EVERY: usize = 8;

const SMALL_THREADS: usize = 256;
const SMALL_WAVE: usize = 64;
const HEAVY_THREADS: usize = 1024;
const HEAVY_WAVE: usize = 16;
const HEAVY_TAPS: usize = 16;
const HEAVY_IIR_SAMPLES: usize = 4;
const GRAPH_ELEMS: usize = 256;
const GRAPH_TAPS: usize = 16;
/// Input sets each graph cycles through (`set_copy_in` swaps them).
const GRAPH_VARIANTS: usize = 8;
const COLD_THREADS: usize = 64;
const COLD_WAVE: usize = 64;
/// Distinct kernels per cycle; above the pool's compile-cache bound of
/// 256, so a cyclic walk misses and evicts on every launch.
pub const COLD_KERNELS: usize = 320;

/// SplitMix64: sub-seeds, shuffles, and the calibration loop.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// Next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One launch with its inputs detached, so the copies are explicit
/// stream commands. `spec.expected` is the host reference.
pub struct Job {
    /// The launch (inputs detached).
    pub spec: LaunchSpec,
    /// `(offset, words)` blocks to copy in before it.
    pub inputs: Vec<(usize, Vec<u32>)>,
}

fn job(spec: LaunchSpec) -> Job {
    let (spec, inputs) = spec.detach_inputs();
    Job { spec, inputs }
}

/// A stream workload: a cycle of jobs consumed one wave at a time.
pub struct StreamLoad {
    /// One cycle of jobs (a multiple of `wave_jobs`).
    pub jobs: Vec<Job>,
    /// Jobs enqueued between two `Runtime::synchronize` calls.
    pub wave_jobs: usize,
}

/// One graph of the replay workload, before instantiation.
pub struct GraphCase {
    /// The pipeline the graph records (variant 0's data).
    pub pipeline: Pipeline,
    /// Per variant: the copy-in payloads (pipeline input order) and the
    /// expected final output.
    pub variants: Vec<(Vec<Vec<u32>>, Vec<u32>)>,
}

/// What a workload repeats.
pub enum Load {
    /// Eager stream commands.
    Stream(StreamLoad),
    /// Instantiated graphs replayed with fresh inputs.
    Graph(Vec<GraphCase>),
}

/// Build a workload's inputs from the seed.
pub fn build(workload: &str, seed: u64) -> Option<Load> {
    let mut rng = SplitMix64(seed ^ 0x5EED_0E2E);
    Some(match workload {
        "stream_small" => Load::Stream(stream_small(&mut rng)),
        "stream_heavy" => Load::Stream(stream_heavy(&mut rng)),
        "graph_replay" => Load::Graph(graph_replay(&mut rng)),
        "compile_cold" => Load::Stream(compile_cold(&mut rng)),
        _ => return None,
    })
}

/// Short IR kernels at 256 threads, round-robin: the runtime's own
/// bookkeeping dominates each launch.
pub fn stream_small(rng: &mut SplitMix64) -> StreamLoad {
    let n = SMALL_THREADS;
    let a = [3, 5, 7, 9, 11][rng.below(5)];
    let jobs = (0..SMALL_WAVE)
        .map(|j| {
            let (x, y, w) = (
                int_vector(n, rng.next()),
                int_vector(n, rng.next()),
                int_vector(n, rng.next()),
            );
            job(match j % 4 {
                0 => LaunchSpec::saxpy_ir(a, &x, &y),
                1 => LaunchSpec::fma_ir(&x, &y, &w),
                2 => LaunchSpec::dot_ir(&x, &y),
                _ => LaunchSpec::sum_ir(&x),
            })
        })
        .collect();
    StreamLoad {
        jobs,
        wave_jobs: SMALL_WAVE,
    }
}

/// Long kernels at 1024 threads: `Processor::run` dominates each launch.
pub fn stream_heavy(rng: &mut SplitMix64) -> StreamLoad {
    let n = HEAVY_THREADS;
    let taps = lowpass_taps(HEAVY_TAPS);
    let jobs = (0..HEAVY_WAVE)
        .map(|j| {
            let sig = q15_signal(n + HEAVY_TAPS - 1, rng.next());
            job(match j % 4 {
                0 => LaunchSpec::fir_ir(&sig, &taps, n),
                1 => LaunchSpec::matmul_ir(
                    &q15_matrix(32, 16, rng.next()),
                    &q15_matrix(16, 32, rng.next()),
                    32,
                    16,
                    32,
                ),
                2 => LaunchSpec::iir_ir(
                    &q15_signal(n * HEAVY_IIR_SAMPLES, rng.next()),
                    n,
                    HEAVY_IIR_SAMPLES,
                    Biquad::lowpass(),
                ),
                // The hand-written paper kernel, as the anchor.
                _ => LaunchSpec::fir(&sig, &taps, n),
            })
        })
        .collect();
    StreamLoad {
        jobs,
        wave_jobs: HEAVY_WAVE,
    }
}

/// 320 kernels the pool has never compiled, at 64 threads so running
/// them is negligible. The shapes are a fixed multiset (so compile cost
/// does not depend on the seed); the seed draws constants, data, order.
pub fn compile_cold(rng: &mut SplitMix64) -> StreamLoad {
    let n = COLD_THREADS;
    let mut jobs = Vec::with_capacity(COLD_KERNELS);
    // 100 saxpy kernels, each with its own scalar.
    let mut scalars: Vec<i32> = (1..=1000).collect();
    rng.shuffle(&mut scalars);
    for &a in &scalars[..100] {
        jobs.push(job(LaunchSpec::saxpy_ir(
            a,
            &int_vector(n, rng.next()),
            &int_vector(n, rng.next()),
        )));
    }
    // 29 FIR kernels: every tap count 4..=32.
    for taps in 4..=32 {
        jobs.push(job(LaunchSpec::fir_ir(
            &q15_signal(n + taps - 1, rng.next()),
            &lowpass_taps(taps),
            n,
        )));
    }
    // 100 matmul kernels: inner dimension 4..=32 over four 64-thread
    // output shapes.
    let shapes = [(8, 8, 29), (4, 16, 29), (16, 4, 29), (2, 32, 13)];
    for (m, cols, ks) in shapes {
        for k in 4..4 + ks {
            jobs.push(job(LaunchSpec::matmul_ir(
                &q15_matrix(m, k, rng.next()),
                &q15_matrix(k, cols, rng.next()),
                m,
                k,
                cols,
            )));
        }
    }
    // 91 biquad banks: 2..=8 samples × 13 coefficient sets.
    for set in 0..13 {
        let b0 = 0.10 + 0.01 * set as f64 + 0.005 * (rng.below(1000) as f64 / 1000.0);
        let q = Biquad {
            b: [to_q15(b0), to_q15(0.4), to_q15(0.2)],
            a: [to_q15(-0.3), to_q15(0.1)],
        };
        for m in 2..=8 {
            jobs.push(job(LaunchSpec::iir_ir(
                &q15_signal(n * m, rng.next()),
                n,
                m,
                q,
            )));
        }
    }
    assert_eq!(jobs.len(), COLD_KERNELS);
    rng.shuffle(&mut jobs);
    StreamLoad {
        jobs,
        wave_jobs: COLD_WAVE,
    }
}

/// Three fusible pipelines at 256 elements, each with a ring of input
/// sets for `GraphExec::set_copy_in`.
pub fn graph_replay(rng: &mut SplitMix64) -> Vec<GraphCase> {
    let n = GRAPH_ELEMS;
    let taps = lowpass_taps(GRAPH_TAPS);
    let a = [3, 5, 7, 9, 11][rng.below(5)];
    let builders: [&dyn Fn(&mut SplitMix64) -> Pipeline; 3] = [
        &|r| Pipeline::saxpy_scale_sum(a, 2, &int_vector(n, r.next()), &int_vector(n, r.next()), 0),
        &|r| {
            Pipeline::saxpy_dot(
                -a,
                &int_vector(n, r.next()),
                &int_vector(n, r.next()),
                &int_vector(n, r.next()),
                0,
            )
        },
        &|r| Pipeline::fir_sum(&q15_signal(n + GRAPH_TAPS - 1, r.next()), &taps, n, 0),
    ];
    builders
        .iter()
        .map(|build| {
            let pipes: Vec<Pipeline> = (0..GRAPH_VARIANTS).map(|_| build(rng)).collect();
            let variants = pipes
                .iter()
                .map(|p| {
                    let payloads = p.inputs.iter().map(|(_, w)| w.clone()).collect();
                    (payloads, p.expected.clone())
                })
                .collect();
            GraphCase {
                pipeline: pipes.into_iter().next().expect("at least one variant"),
                variants,
            }
        })
        .collect()
}

/// Record a pipeline as copy-ins → launch chain → copy-out.
pub fn record(p: &Pipeline) -> GraphBuilder {
    let mut b = GraphBuilder::new();
    let mut prev: Vec<NodeId> = p
        .inputs
        .iter()
        .map(|(dst, words)| b.copy_in(*dst, words.clone(), &[]))
        .collect();
    for stage in &p.stages {
        prev = vec![b.launch(stage.clone(), &prev)];
    }
    b.copy_out(p.out_off, p.out_len, &prev);
    b
}

/// Instantiate one graph case on a pool: record → fuse → instantiate.
/// Returns the live graph and what fusion did.
pub fn instantiate(rt: &Runtime, case: &GraphCase) -> (LiveGraph, FusionReport) {
    let graph = record(&case.pipeline)
        .finish()
        .expect("a pipeline is a DAG");
    let (fused, report) = fuse(&graph);
    // Fusion renumbers nodes: find each copy-in by its destination.
    let copy_ins = case
        .pipeline
        .inputs
        .iter()
        .map(|(dst, _)| {
            let at = fused
                .nodes()
                .iter()
                .position(|n| matches!(&n.op, GraphOp::CopyIn { dst: d, .. } if d == dst));
            NodeId::from_index(at.expect("fusion keeps every copy-in"))
        })
        .collect();
    let launch_specs = fused
        .nodes()
        .iter()
        .filter_map(|n| match &n.op {
            GraphOp::Launch(spec) => Some((**spec).clone()),
            _ => None,
        })
        .collect();
    let exec = rt.instantiate(fused).expect("a pipeline instantiates");
    (
        LiveGraph {
            exec,
            copy_ins,
            launch_specs,
        },
        report,
    )
}

/// An instantiated graph plus what a replay needs to re-bind and check.
pub struct LiveGraph {
    exec: GraphExec,
    /// Copy-in nodes of the fused graph, in pipeline input order.
    copy_ins: Vec<NodeId>,
    /// The fused graph's launch nodes.
    pub launch_specs: Vec<LaunchSpec>,
}

/// Outcome of one wave.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WaveOut {
    /// Kernel launches completed.
    pub launches: u64,
    /// Σ `ExecStats::thread_ops` of those launches.
    pub thread_ops: u64,
    /// Σ `ExecStats::cycles` of those launches.
    pub cycles: u64,
    /// Σ `GraphReplay::span_cycles` (graph workload only).
    pub span_cycles: u64,
    /// Handles and outputs checked.
    pub attempted: u64,
    /// Handles that resolved `Err` plus outputs that differ from the
    /// host reference.
    pub failed: u64,
}

impl WaveOut {
    /// Accumulate another wave.
    pub fn add(&mut self, o: &WaveOut) {
        self.launches += o.launches;
        self.thread_ops += o.thread_ops;
        self.cycles += o.cycles;
        self.span_cycles += o.span_cycles;
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Handles of an enqueued, not yet collected stream wave, each with the
/// index of its job.
pub struct InFlight(Vec<(LaunchHandle, CopyHandle, usize)>);

enum Live {
    Stream {
        streams: Vec<Stream>,
        cursor: usize,
        /// Clones of the next wave's specs, made by [`Session::prepare`].
        prepared: Vec<LaunchSpec>,
    },
    Graph {
        graphs: Vec<LiveGraph>,
        variant: usize,
    },
}

/// A runtime with one workload bound to it.
pub struct Session {
    /// The pool.
    pub rt: Runtime,
    load: Arc<Load>,
    live: Live,
}

impl Session {
    /// Spin up a pool and bind the workload: create `streams` streams,
    /// or record → fuse → instantiate the graphs.
    pub fn new(load: &Arc<Load>, cfg: RuntimeConfig, streams: usize) -> Self {
        let rt = Runtime::new(cfg);
        let live = match &**load {
            Load::Stream(_) => Live::Stream {
                streams: (0..streams).map(|_| rt.stream()).collect(),
                cursor: 0,
                prepared: Vec::new(),
            },
            Load::Graph(cases) => Live::Graph {
                graphs: cases.iter().map(|case| instantiate(&rt, case).0).collect(),
                variant: 0,
            },
        };
        Session {
            rt,
            load: Arc::clone(load),
            live,
        }
    }

    /// Waves that make up one pass over the workload's jobs.
    pub fn waves_per_cycle(&self) -> usize {
        match &*self.load {
            Load::Stream(load) => load.jobs.len() / load.wave_jobs,
            Load::Graph(_) => 1,
        }
    }

    /// The instantiated graphs (empty on stream workloads).
    pub fn graphs(&self) -> &[LiveGraph] {
        match &self.live {
            Live::Graph { graphs, .. } => graphs,
            Live::Stream { .. } => &[],
        }
    }

    /// Clone the next wave's specs ahead of it. `Stream::launch`
    /// consumes its spec, so the generator needs a fresh copy per launch;
    /// making the copies here, between waves, keeps that cost — the
    /// generator's, not the system's — out of the timed wave. (A wave
    /// enqueued without this clones as it goes.) A no-op for graphs.
    pub fn prepare(&mut self) {
        if let (
            Load::Stream(load),
            Live::Stream {
                cursor, prepared, ..
            },
        ) = (&*self.load, &mut self.live)
        {
            if prepared.is_empty() {
                let next = &load.jobs[*cursor..*cursor + load.wave_jobs];
                prepared.extend(next.iter().map(|job| job.spec.clone()));
            }
        }
    }

    /// Enqueue the next stream wave without waiting for it.
    ///
    /// # Panics
    /// On the graph workload (replay is synchronous).
    pub fn enqueue(&mut self, sp: &mut Spans) -> InFlight {
        sp.within("harness.spec_clone", || self.prepare());
        let (
            Load::Stream(load),
            Live::Stream {
                streams,
                cursor,
                prepared,
            },
        ) = (&*self.load, &mut self.live)
        else {
            panic!("enqueue is for stream workloads");
        };
        let first = *cursor;
        *cursor = (first + load.wave_jobs) % load.jobs.len();
        let mut handles = Vec::with_capacity(load.wave_jobs);
        let jobs = &load.jobs[first..first + load.wave_jobs];
        for (j, (job, spec)) in jobs.iter().zip(prepared.drain(..)).enumerate() {
            let s = &streams[j % streams.len()];
            sp.enter("runtime.enqueue");
            for (off, words) in &job.inputs {
                s.copy_in(*off, words);
            }
            let launch = s.launch(spec);
            let out = s.copy_out(job.spec.out_off, job.spec.out_len);
            sp.exit();
            handles.push((launch, out, first + j));
            if j % EVENT_EVERY == EVENT_EVERY - 1 {
                sp.enter("runtime.event");
                let e = self.rt.event();
                s.record_event(&e);
                streams[(j + 1) % streams.len()].wait_event(&e);
                sp.exit();
            }
        }
        InFlight(handles)
    }

    /// Wait for an enqueued wave and check every handle and output.
    pub fn collect(&self, wave: InFlight, sp: &mut Spans) -> WaveOut {
        let Load::Stream(load) = &*self.load else {
            panic!("collect is for stream workloads");
        };
        let mut out = WaveOut::default();
        let synced = sp.within("runtime.sync_wait", || self.rt.synchronize());
        out.attempted += 1;
        out.failed += synced.is_err() as u64;
        for (launch, copy, job) in wave.0 {
            sp.enter("runtime.handle_wait");
            let stats = launch.wait();
            let words = copy.wait();
            sp.exit();
            sp.enter("harness.verify");
            out.attempted += 2;
            match stats {
                Ok(s) => {
                    out.launches += 1;
                    out.thread_ops += s.thread_ops;
                    out.cycles += s.cycles;
                }
                Err(_) => out.failed += 1,
            }
            out.failed += !matches!(&words, Ok(w) if *w == load.jobs[job].spec.expected) as u64;
            sp.exit();
        }
        out
    }

    /// One wave: enqueue, synchronize, wait, verify — or, for graphs,
    /// re-bind fresh inputs and replay each graph once.
    pub fn wave(&mut self, sp: &mut Spans) -> WaveOut {
        sp.enter_wave();
        let out = if matches!(self.live, Live::Stream { .. }) {
            let wave = self.enqueue(sp);
            self.collect(wave, sp)
        } else {
            self.replay_wave(sp)
        };
        sp.exit();
        out
    }

    fn replay_wave(&mut self, sp: &mut Spans) -> WaveOut {
        let (Load::Graph(cases), Live::Graph { graphs, variant }) = (&*self.load, &mut self.live)
        else {
            panic!("replay is for the graph workload");
        };
        let mut out = WaveOut::default();
        *variant = (*variant + 1) % GRAPH_VARIANTS;
        for (case, g) in cases.iter().zip(graphs.iter_mut()) {
            let (payloads, expected) = &case.variants[*variant];
            sp.enter("runtime.set_copy_in");
            for (node, words) in g.copy_ins.iter().zip(payloads) {
                out.attempted += 1;
                out.failed += g.exec.set_copy_in(*node, words.clone()).is_err() as u64;
            }
            sp.exit();
            let replay = sp.within("runtime.replay", || self.rt.replay(&g.exec));
            sp.enter("harness.verify");
            out.attempted += 2;
            match replay {
                Ok(r) => {
                    out.launches += g.launch_specs.len() as u64;
                    out.thread_ops += r.compute.thread_ops;
                    out.cycles += r.compute.cycles;
                    out.span_cycles += r.span_cycles;
                    let ok = r.outputs.len() == 1 && r.outputs[0].1 == *expected;
                    out.failed += !ok as u64;
                }
                Err(_) => out.failed += 2,
            }
            sp.exit();
        }
        out
    }
}
