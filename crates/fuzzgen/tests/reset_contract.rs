//! The reset contract (see `crates/core/tests/reset_contract.rs`, which
//! pins it for host writes, snapshots, traps and watchdog kills) over
//! the programs `simt-core` cannot reach from its own tests: every
//! shipped kernel family, hand-written and IR, the three pipelines, and
//! the generator's kernels for seeds 0..200 — guards, `.tk` scales,
//! predicates, and in `Wild` mode stores that scatter over the whole
//! memory and collide.
//!
//! Like a device's build cache, the test keeps **one long-lived
//! processor per configuration** and sends every program of that
//! configuration through it: the reused build must end each run in the
//! state a freshly built processor ends it in, and `reset()` must bring
//! it back to a fresh processor's snapshot, whatever ran before.

use simt_compiler::{compile, OptLevel};
use simt_core::{Processor, ProcessorConfig, RunOptions};
use simt_fuzzgen::gen::{materialize, program_for_seed, IN_OFF, MEM_WORDS};
use simt_isa::Program;
use simt_kernels::iir::Biquad;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::{int_vector, lowpass_taps, q15_matrix, q15_signal};
use simt_kernels::{sobel, LaunchSpec};

/// Long-lived processors, one per configuration seen.
#[derive(Default)]
struct Builds(Vec<Processor>);

impl Builds {
    fn get(&mut self, config: &ProcessorConfig) -> &mut Processor {
        let i = match self.0.iter().position(|p| p.config() == config) {
            Some(i) => i,
            None => {
                self.0.push(Processor::new(config.clone()).unwrap());
                self.0.len() - 1
            }
        };
        &mut self.0[i]
    }

    /// Run `program` from `inputs` on the configuration's long-lived
    /// build (reset first) and on a fresh one: same statistics, same
    /// final state; then `reset()` equals a processor built this instant.
    #[track_caller]
    fn check(
        &mut self,
        config: &ProcessorConfig,
        program: &Program,
        inputs: &[(usize, Vec<u32>)],
        opts: RunOptions,
        what: &str,
    ) {
        let cpu = self.get(config);
        let mut fresh = Processor::new(config.clone()).unwrap();
        cpu.reset();
        for p in [&mut *cpu, &mut fresh] {
            for (off, words) in inputs {
                p.shared_mut().load_words(*off, words).unwrap();
            }
            p.load_program(program).unwrap();
        }
        let (got, want) = (cpu.run(opts), fresh.run(opts));
        assert!(want.is_ok(), "{what}: {want:?}");
        assert_eq!(got, want, "{what}: statistics");
        assert!(cpu.snapshot() == fresh.snapshot(), "{what}: final state");

        cpu.reset();
        let blank = Processor::new(config.clone()).unwrap();
        let mut want = blank.snapshot();
        want.program = Some(program.clone());
        assert!(cpu.snapshot() == want, "{what}: reset left state behind");
        assert_eq!(cpu.shared().stats(), blank.shared().stats(), "{what}");
    }
}

/// One spec of every kernel family the crate ships, at two sizes so a
/// configuration's build sees a small footprint after a large one.
fn shipped_specs() -> Vec<LaunchSpec> {
    let mut specs = Vec::new();
    for n in [256usize, 64] {
        let x = int_vector(n, 1);
        let y = int_vector(n, 2);
        let w = int_vector(n, 3);
        let sig = q15_signal(n / 2 + 15, 3);
        let taps = lowpass_taps(16);
        let a = q15_matrix(8, 8, 4);
        let b = q15_matrix(8, 8, 5);
        let iir_in = q15_signal(16 * 8, 6);
        let img = sobel::test_card(16, 12);
        specs.extend([
            LaunchSpec::saxpy(3, &x, &y),
            LaunchSpec::sat_add(&x, &y),
            LaunchSpec::fma(&x, &y, &w),
            LaunchSpec::dot(&x, &y),
            LaunchSpec::sum(&x),
            LaunchSpec::fir(&sig, &taps, n / 2),
            LaunchSpec::matmul(&a, &b, 8, 8, 8),
            LaunchSpec::iir(&iir_in, 16, 8, Biquad::lowpass()),
            LaunchSpec::scan(&int_vector(64, 7)),
            LaunchSpec::sobel(&img, 16, 12),
            LaunchSpec::saxpy_ir(3, &x, &y),
            LaunchSpec::fma_ir(&x, &y, &w),
            LaunchSpec::dot_ir(&x, &y),
            LaunchSpec::sum_ir(&x),
            LaunchSpec::fir_ir(&sig, &taps, n / 2),
            LaunchSpec::matmul_ir(&a, &b, 8, 8, 8),
            LaunchSpec::iir_ir(&iir_in, 16, 8, Biquad::lowpass()),
        ]);
        for pipeline in [
            Pipeline::saxpy_scale_sum(3, 2, &x, &y, 0),
            Pipeline::saxpy_dot(3, &x, &y, &w, 0),
            Pipeline::fir_sum(&sig, &taps, n / 2, 0),
        ] {
            // Each stage from the pipeline's inputs alone: the stages
            // after the first read zeros, which is as good a footprint.
            for mut stage in pipeline.stages {
                stage.inputs = pipeline.inputs.clone();
                specs.push(stage);
            }
        }
    }
    specs
}

#[test]
fn reset_after_every_shipped_kernel_family() {
    let mut builds = Builds::default();
    let specs = shipped_specs();
    // Twice over, the second time backwards: every build is reused
    // after a different predecessor.
    for spec in specs.iter().chain(specs.iter().rev()) {
        let program = spec
            .source
            .compile(&spec.config)
            .unwrap_or_else(|e| panic!("{}: {e:?}", spec.name));
        for opts in [RunOptions::default(), RunOptions::cycle_accurate()] {
            builds.check(&spec.config, &program, &spec.inputs, opts, &spec.name);
        }
    }
    assert!(builds.0.len() >= 3, "the families span several builds");
}

#[test]
fn reset_after_generated_kernels() {
    let mut builds = Builds::default();
    let mut programs = 0;
    for seed in 0..200 {
        let m = materialize(&program_for_seed(seed));
        assert_eq!(m.config.shared_words, MEM_WORDS);
        let inputs = [(IN_OFF, m.input())];
        for (stage, kernel) in m.kernels.iter().enumerate() {
            for opt in [OptLevel::None, OptLevel::Full] {
                // An allocation failure is a compile verdict, not a run.
                let Ok(out) = compile(kernel, &m.config, opt) else {
                    continue;
                };
                let what = format!("seed {seed} stage {stage} {opt:?}");
                let opts = RunOptions::default();
                builds.check(&m.config, &out.program, &inputs, opts, &what);
                programs += 1;
            }
        }
    }
    assert!(programs >= 200, "only {programs} generated programs ran");
}
