//! The device pool: simulated devices a scheduler can execute launches
//! and copies on.
//!
//! Each device is a single SIMT core slot (a `simt_core::Processor`
//! built on demand per kernel configuration) with a modeled host link.
//! A small cache of processor builds makes back-to-back launches with
//! compatible configurations reuse the same instance — the scheduler's
//! "batch compatible launches onto the same device" fast path.
//!
//! What a launch copies (`Device::run_launch`, the one path streams,
//! graph replays and chaos retries share): **in**, the first
//! `min(shared_words, buffer.len())` words of the stream buffer, once —
//! the copy is the reset (`Processor::reset_seeded`), which otherwise
//! zeroes only the register columns and memory words the build's last
//! launch dirtied — then the spec's inline inputs; **out**, after a run
//! that neither trapped nor overran the watchdog budget, the one extent
//! of shared memory written since the seed (inline inputs and stores),
//! clipped to those same words. A launch that stores one word writes one
//! word back; a failed launch writes nothing back and still returns its
//! build to the cache.
//!
//! Next to the per-device processor cache sits the pool-wide,
//! content-addressed [`CompileCache`]: every launch resolves its
//! [`KernelSource`] (text assembly or `simt-compiler` IR) through it,
//! so a kernel is assembled/compiled exactly once per (source, config)
//! no matter how many streams, devices or repeats launch it.

use crate::RuntimeError;
use simt_chaos::{ChaosConfig, RecoveryConfig};
use simt_compiler::{CompileCache, Lookup, OptLevel};
use simt_core::{DecodedProgram, ExecStats, PcProfile, Processor, ProcessorConfig, RunOptions};
use simt_isa::Program;
use simt_kernels::{KernelSource, LaunchSpec};
use simt_metrics::{names as metric, HealthConfig, Histogram, Registry};
use simt_profile::ProfileConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Everything the pool retains per profiled kernel: the merged per-PC
/// histogram plus what postmortem attribution needs to interpret it —
/// the compiled program (for disassembly) and the kernel's source and
/// configuration (to rebuild the IR source map on demand).
pub(crate) struct KernelProfile {
    /// Merged per-PC execution profile across every launch.
    pub profile: PcProfile,
    /// The compiled program the profile indexes into.
    pub program: Arc<Program>,
    /// Kernel source (IR sources can re-derive a PC→IR source map).
    pub source: KernelSource,
    /// Processor configuration the kernel compiled under.
    pub config: ProcessorConfig,
}

/// Pool-wide per-PC profile sink: merged histograms keyed by kernel
/// name, fed by every device when per-PC profiling is on.
pub(crate) type PcSink = Mutex<HashMap<String, KernelProfile>>;

/// Per-device model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Stream device-buffer size in 32-bit words.
    pub memory_words: usize,
    /// Host-link setup latency in device clocks (arbitration plus the
    /// sector-crossing stages of §6 — same model as the system
    /// interconnect).
    pub link_latency: u64,
    /// Host-link payload width in words per device clock.
    pub link_width_words: usize,
    /// Modeled device clock in MHz (the §5.1 system target by default),
    /// used to convert cycle accounting into modeled wall-clock.
    pub fmax_mhz: f64,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            memory_words: 16384,
            link_latency: 12,
            link_width_words: 4,
            fmax_mhz: 854.0,
        }
    }
}

/// Pool-level configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Number of simulated devices (worker threads).
    pub devices: usize,
    /// LRU bound on the pool-wide content-addressed compile cache
    /// (`None` = unbounded). A long-running pool serving many distinct
    /// programs must not grow the cache without limit; evictions are
    /// counted in [`crate::RuntimeStats::compile_evictions`].
    pub compile_cache_capacity: Option<usize>,
    /// Opt-in tracing/profiling (`None` = disabled, the default: the
    /// event ring then keeps only the black-box window and records no
    /// allocation-carrying detail). See [`simt_profile::ProfileConfig`].
    pub profile: Option<ProfileConfig>,
    /// Always-on pool metrics (counters, watermark gauges, modeled-cycle
    /// latency histograms — `simt-metrics`). On by default: the record
    /// path is a few relaxed atomics per *retired command*, not per
    /// instruction. The off switch exists so the disabled-path cost can
    /// be measured (`bench-e2e --trace 1`:
    /// `metrics.overhead_ns_per_launch`).
    pub metrics: bool,
    /// Black-box window: the newest this-many events of the pool's
    /// event ring are always retained for postmortems
    /// (`simt-forensics`). `0` disables it — and, with no `profile`
    /// either, the ring itself. Like `metrics`, the off switch exists
    /// to measure the disabled path (`bench-e2e --trace 1`:
    /// `forensics.overhead_ns_per_launch`).
    pub flight_capacity: usize,
    /// Health-watchdog thresholds used by [`crate::Runtime::health`]
    /// and postmortems. Defaults preserve the watchdog's stock
    /// behavior; tests tighten them to provoke findings
    /// deterministically.
    pub health: HealthConfig,
    /// Deterministic fault injection (`None` = no faults, the
    /// default). See [`simt_chaos::ChaosConfig`]: every decision is a
    /// pure hash over the seed and the command's stable identity, so a
    /// fixed config injects identically on every run.
    pub chaos: Option<ChaosConfig>,
    /// Recovery policy: watchdog budget, bounded retry/backoff, and
    /// the per-device fault budget driving quarantine. Defaults are
    /// inert for fault-free workloads.
    pub recovery: RecoveryConfig,
    /// Per-device parameters.
    pub device: DeviceConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            devices: 2,
            compile_cache_capacity: Some(256),
            profile: None,
            metrics: true,
            flight_capacity: 1024,
            health: HealthConfig::default(),
            chaos: None,
            recovery: RecoveryConfig::default(),
            device: DeviceConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// A pool of `devices` default devices.
    pub fn with_devices(devices: usize) -> Self {
        RuntimeConfig {
            devices,
            ..Default::default()
        }
    }

    /// Enable tracing/profiling with `profile`.
    pub fn with_profile(mut self, profile: ProfileConfig) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Toggle the always-on pool metrics (on by default; turning them
    /// off is for measuring the disabled-path cost).
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Set the black-box window (`0` disables it; only for measuring
    /// the disabled-path cost).
    pub fn with_flight_capacity(mut self, flight_capacity: usize) -> Self {
        self.flight_capacity = flight_capacity;
        self
    }

    /// Set the health-watchdog thresholds.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Install a deterministic fault-injection plan (chaos engine).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Set the recovery policy (watchdog budget, retry/backoff
    /// schedule, per-device fault budget).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Cached processor builds per device (compatible-launch reuse).
const PROCESSOR_CACHE: usize = 8;

/// Outcome of one launch on a device.
#[derive(Debug)]
pub(crate) struct LaunchOutcome {
    /// Execution statistics of the run.
    pub stats: ExecStats,
    /// Whether a cached processor build was reused.
    pub cache_hit: bool,
    /// What the pool's content-addressed [`CompileCache`] did to
    /// resolve the kernel; the scheduler records it when the launch
    /// retires.
    pub lookup: Lookup,
}

/// Resolve a launch's kernel source through the pool's compile cache,
/// in *predecoded* form: the simulator's µop decode rides the cached
/// artifact, so repeated stream launches and graph replays skip
/// re-decoding (the cache's `decode_hits` counter tracks this).
pub(crate) fn resolve(
    cache: &CompileCache,
    spec: &LaunchSpec,
) -> Result<(Arc<DecodedProgram>, Lookup), RuntimeError> {
    match &spec.source {
        KernelSource::Asm(asm) => cache
            .get_or_assemble_decoded(asm, &spec.config)
            .map_err(|e| RuntimeError::Asm(e.to_string())),
        KernelSource::Ir(kernel) => cache
            .get_or_compile_decoded(kernel, &spec.config, OptLevel::Full)
            .map_err(|e| RuntimeError::Compile(e.to_string())),
    }
}

/// One simulated device.
pub(crate) struct Device {
    /// Pool index.
    pub id: usize,
    cfg: DeviceConfig,
    /// Watchdog: modeled-cycle budget a launch may run before it is
    /// killed and resolved as [`RuntimeError::Timeout`].
    watchdog_cycle_budget: u64,
    /// Retired processor builds, most recent first, each found again by
    /// its own [`Processor::config`].
    cache: Vec<Processor>,
    /// Pool-wide compile cache (shared across every device).
    compile_cache: Arc<CompileCache>,
    /// Pool-wide per-PC profile sink (`Some` only when the runtime was
    /// built with [`ProfileConfig::per_pc`]).
    pc_sink: Option<Arc<PcSink>>,
    /// Launch-cycle histograms this device has retired launches into,
    /// by kernel name (see [`Device::kernel_cycles`]).
    kernel_cycles: HashMap<String, Arc<Histogram>>,
}

impl Device {
    pub(crate) fn new(
        id: usize,
        cfg: DeviceConfig,
        watchdog_cycle_budget: u64,
        compile_cache: Arc<CompileCache>,
        pc_sink: Option<Arc<PcSink>>,
    ) -> Self {
        Device {
            id,
            cfg,
            watchdog_cycle_budget,
            cache: Vec::new(),
            compile_cache,
            pc_sink,
            kernel_cycles: HashMap::new(),
        }
    }

    /// The pool's launch-cycle histogram for `kernel`. The registry is
    /// asked once per kernel name and device; afterwards this is a
    /// borrowed-key map hit — no label allocation, no registry lock —
    /// so a retired launch records through a handle.
    pub(crate) fn kernel_cycles(&mut self, registry: &Registry, kernel: &str) -> Arc<Histogram> {
        if let Some(h) = self.kernel_cycles.get(kernel) {
            return Arc::clone(h);
        }
        let h = registry.histogram(metric::LAUNCH_CYCLES, kernel);
        self.kernel_cycles
            .insert(kernel.to_string(), Arc::clone(&h));
        h
    }

    /// Modeled clocks for moving `words` over the host link.
    pub(crate) fn copy_cycles(&self, words: usize) -> u64 {
        self.cfg.link_latency + words.div_ceil(self.cfg.link_width_words) as u64
    }

    /// Fetch a processor for `config`, reusing a cached build when the
    /// configuration matches — in whatever state its last launch left
    /// it: [`Device::execute`] resets it as it seeds it.
    fn processor(&mut self, config: &ProcessorConfig) -> Result<(Processor, bool), RuntimeError> {
        if let Some(i) = self.cache.iter().position(|p| p.config() == config) {
            return Ok((self.cache.remove(i), true));
        }
        let p = Processor::new(config.clone()).map_err(|e| RuntimeError::Config(e.to_string()))?;
        Ok((p, false))
    }

    fn retire(&mut self, p: Processor) {
        self.cache.insert(0, p);
        self.cache.truncate(PROCESSOR_CACHE);
    }

    /// Execute one launch against the stream's device buffer: the
    /// processor's shared memory is seeded from the buffer, inline spec
    /// inputs are applied on top, the kernel runs to `exit`, and what it
    /// wrote is written back so later copies and launches see it. The
    /// build goes back into the cache however the launch ends.
    pub(crate) fn run_launch(
        &mut self,
        spec: &LaunchSpec,
        buffer: &mut [u32],
    ) -> Result<LaunchOutcome, RuntimeError> {
        let (decoded, lookup) = resolve(&self.compile_cache, spec)?;
        let (mut proc, cache_hit) = self.processor(&spec.config)?;
        let stats = self.execute(&mut proc, spec, decoded, buffer);
        self.retire(proc);
        Ok(LaunchOutcome {
            stats: stats?,
            cache_hit,
            lookup,
        })
    }

    /// [`Device::run_launch`] on a given build. One seed, one write-back:
    /// the reset *is* the copy of `buffer[..shared_words]` into shared
    /// memory (`Processor::reset_seeded`), and only the extent written
    /// since — inline inputs and stores — is copied back, the rest of the
    /// shared image being the buffer's own words still.
    fn execute(
        &self,
        proc: &mut Processor,
        spec: &LaunchSpec,
        decoded: Arc<DecodedProgram>,
        buffer: &mut [u32],
    ) -> Result<ExecStats, RuntimeError> {
        let exec_err = |e: String| RuntimeError::Exec {
            kernel: spec.name.clone(),
            device: self.id,
            detail: e,
        };
        let shared_words = spec.config.shared_words.min(buffer.len());
        proc.reset_seeded(&buffer[..shared_words])
            .map_err(|e| exec_err(e.to_string()))?;
        for (off, words) in &spec.inputs {
            proc.shared_mut()
                .load_words(*off, words)
                .map_err(|e| exec_err(e.to_string()))?;
        }
        // Postmortem attribution wants the program a profile indexes
        // into; keep a handle before the decode is consumed below
        // (profiled pools only — the default path stays untouched).
        let program = self.pc_sink.as_ref().map(|_| Arc::clone(decoded.program()));
        proc.load_decoded(decoded)
            .map_err(|e| RuntimeError::Load(e.to_string()))?;
        let stats = match &self.pc_sink {
            None => proc
                .run(RunOptions::default())
                .map_err(|e| exec_err(e.to_string()))?,
            Some(sink) => {
                // Per-PC profiling on: run the monomorphized profiled
                // loop and merge the histogram into the pool sink under
                // the kernel's name.
                let (stats, profile) = proc
                    .run_profiled(RunOptions::default())
                    .map_err(|e| exec_err(e.to_string()))?;
                let mut sink = sink.lock().unwrap();
                match sink.get_mut(&spec.name) {
                    Some(merged) => merged.profile.merge(&profile),
                    None => {
                        sink.insert(
                            spec.name.clone(),
                            KernelProfile {
                                profile,
                                program: program.expect("profiled path captured the program"),
                                source: spec.source.clone(),
                                config: spec.config.clone(),
                            },
                        );
                    }
                }
                stats
            }
        };
        // Watchdog: a launch over its modeled-cycle budget is killed —
        // its writes never reach the stream buffer (checked *before*
        // write-back, so a retried or poisoned command leaves the
        // buffer bit-exact with the fault-free history).
        if stats.cycles > self.watchdog_cycle_budget {
            return Err(RuntimeError::Timeout {
                kernel: spec.name.clone(),
                device: self.id,
                budget_cycles: self.watchdog_cycle_budget,
            });
        }
        let written = proc.shared().written();
        let written = written.start.min(shared_words)..written.end.min(shared_words);
        buffer[written.clone()].copy_from_slice(&proc.shared().as_slice()[written]);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_kernels::workload::int_vector;

    fn device() -> Device {
        Device::new(
            0,
            DeviceConfig::default(),
            RecoveryConfig::default().watchdog_cycle_budget,
            Arc::new(CompileCache::new()),
            None,
        )
    }

    // ---- the write-back contract -------------------------------------
    //
    // What a launch may do to the stream buffer, stated by the rule the
    // launch path was first written with: seed a fresh processor's
    // shared memory from `buffer[..shared_words]`, apply the inline
    // inputs, run, and copy the *whole* shared image back. However the
    // device moves less than that, the buffer must end up the same.

    /// A 64-thread kernel on the small build (1024 shared words).
    fn asm_spec(name: &str, asm: &str, inputs: Vec<(usize, Vec<u32>)>) -> LaunchSpec {
        LaunchSpec {
            name: name.into(),
            config: ProcessorConfig::small(),
            source: KernelSource::Asm(asm.into()),
            inputs,
            out_off: 0,
            out_len: 0,
            expected: Vec::new(),
        }
    }

    /// Store shapes: unit-stride, scattered, colliding, guarded (some
    /// lanes off, all lanes off), scaled, store-free, at the last words
    /// of shared memory, and with inline inputs (read, and not read).
    fn contract_kernels() -> Vec<LaunchSpec> {
        let k = |name, asm| asm_spec(name, asm, Vec::new());
        vec![
            k(
                "unit_stride",
                "  stid r1\n  lds r2, [r1+0]\n  addi r2, r2, 1\n  sts [r1+64], r2\n  exit",
            ),
            k(
                "scattered",
                "  stid r1\n  muli r2, r1, 13\n  sts [r2+5], r1\n  exit",
            ),
            k(
                "colliding",
                "  stid r1\n  movi r2, 300\n  sts [r2+0], r1\n  exit",
            ),
            k(
                "guarded_odd_lanes",
                "  stid r1\n  andi r2, r1, 1\n  movi r3, 0\n  setp.ne p1, r2, r3\n  @p1 sts [r1+200], r1\n  exit",
            ),
            k(
                "guarded_all_off",
                "  stid r1\n  movi r2, 0\n  setp.lt p0, r1, r2\n  @p0 sts [r1+0], r2\n  exit",
            ),
            k(
                "scaled",
                "  stid r1\n  muli r15, r1, 3\n  sts.t2 [r1+500], r15\n  exit",
            ),
            k("store_free", "  stid r1\n  lds r7, [r1+10]\n  exit"),
            k("last_words", "  stid r1\n  sts [r1+960], r1\n  exit"),
            asm_spec(
                "inline_inputs_read",
                "  stid r1\n  lds r2, [r1+700]\n  shli r2, r2, 1\n  sts [r1+100], r2\n  exit",
                vec![(700, (1..=64).collect()), (40, vec![0xAAAA, 0xBBBB])],
            ),
            asm_spec(
                "inline_inputs_only",
                "  stid r1\n  exit",
                vec![(1020, vec![1, 2, 3, 4]), (0, vec![9])],
            ),
        ]
    }

    /// A non-zero word everywhere, different at every index.
    fn pattern(len: usize, salt: u32) -> Vec<u32> {
        (0..len as u32)
            .map(|i| (i ^ salt).wrapping_mul(2654435761) | 1)
            .collect()
    }

    /// The buffer a launch must leave, by the full-copy rule.
    fn full_copy_rule(spec: &LaunchSpec, buffer: &[u32]) -> Vec<u32> {
        let shared_words = spec.config.shared_words.min(buffer.len());
        let mut cpu = Processor::new(spec.config.clone()).unwrap();
        cpu.shared_mut()
            .load_words(0, &buffer[..shared_words])
            .unwrap();
        for (off, words) in &spec.inputs {
            cpu.shared_mut().load_words(*off, words).unwrap();
        }
        let program = spec.source.compile(&spec.config).unwrap();
        cpu.load_program(&program).unwrap();
        cpu.run(RunOptions::default()).unwrap();
        let mut want = buffer.to_vec();
        want[..shared_words].copy_from_slice(&cpu.shared().as_slice()[..shared_words]);
        want
    }

    #[test]
    fn write_back_equals_the_full_copy_rule() {
        // shared_words (1024) below, equal to and above the buffer.
        for buffer_words in [4096usize, 1024, 512] {
            // One device per size: its one cached build serves every
            // launch, each on top of what the last one left behind.
            let mut d = device();
            let mut buffer = pattern(buffer_words, buffer_words as u32);
            let kernels = contract_kernels();
            for (round, spec) in kernels.iter().chain(kernels.iter().rev()).enumerate() {
                let want = full_copy_rule(spec, &buffer);
                let out = d.run_launch(spec, &mut buffer).unwrap();
                assert_eq!(out.cache_hit, round > 0, "{}", spec.name);
                assert!(
                    buffer == want,
                    "{} on a {buffer_words}-word buffer: first difference at word {:?}",
                    spec.name,
                    buffer.iter().zip(&want).position(|(a, b)| a != b)
                );
            }
        }
    }

    #[test]
    fn failed_launches_leave_the_buffer_bit_identical() {
        // Over budget only for the long kernel; every other one here
        // runs for a few hundred clocks.
        let mut d = Device::new(
            0,
            DeviceConfig::default(),
            3_000,
            Arc::new(CompileCache::new()),
            None,
        );
        // Both store (and write registers and a predicate) before
        // failing: lanes 0..40 of the scattered store land before lane
        // 40 leaves the memory; the spin outlives the budget.
        let trapping = asm_spec(
            "trapping",
            "  stid r1\n  sts [r1+0], r1\n  setp.eq p2, r1, r1\n  muli r15, r1, 25\n  sts [r15+24], r1\n  exit",
            vec![(600, vec![7; 8])],
        );
        let over_budget = asm_spec(
            "over_budget",
            "  stid r1\n  sts [r1+128], r1\n  setp.eq p3, r1, r1\n  loop 2000, end\n  addi r14, r14, 1\n end:\n  exit",
            vec![(900, vec![5; 4])],
        );
        let good = &contract_kernels()[0];
        for buffer_words in [4096usize, 1024] {
            let mut buffer = pattern(buffer_words, 77);
            for _ in 0..2 {
                let before = buffer.clone();
                match d.run_launch(&trapping, &mut buffer) {
                    Err(RuntimeError::Exec { kernel, .. }) => assert_eq!(kernel, "trapping"),
                    other => panic!("expected Exec, got {other:?}"),
                }
                assert!(buffer == before, "a trapped launch must not write back");
                match d.run_launch(&over_budget, &mut buffer) {
                    Err(RuntimeError::Timeout { kernel, .. }) => assert_eq!(kernel, "over_budget"),
                    other => panic!("expected Timeout, got {other:?}"),
                }
                assert!(buffer == before, "a killed launch must not write back");
                // And nothing of either survives into the next launch.
                let want = full_copy_rule(good, &buffer);
                d.run_launch(good, &mut buffer).unwrap();
                assert!(buffer == want, "a good launch after two failed ones");
            }
        }
    }

    #[test]
    fn copy_cost_matches_link_model() {
        let d = device();
        assert_eq!(d.copy_cycles(0), 12);
        assert_eq!(d.copy_cycles(1), 13);
        assert_eq!(d.copy_cycles(64), 12 + 16);
    }

    #[test]
    fn launch_reads_and_writes_the_buffer() {
        let mut d = device();
        let x = int_vector(64, 1);
        let y = int_vector(64, 2);
        // Detached inputs: place them in the buffer, not the spec.
        let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
        let mut buffer = vec![0u32; 16384];
        for (off, words) in &inputs {
            buffer[*off..*off + words.len()].copy_from_slice(words);
        }
        let out = d.run_launch(&spec, &mut buffer).unwrap();
        assert!(out.stats.cycles > 0);
        assert!(!out.cache_hit);
        assert!(!out.lookup.hit, "first launch must compile");
        assert_eq!(
            &buffer[spec.out_off..spec.out_off + spec.out_len],
            spec.expected.as_slice()
        );
        // Same config again: cached build and cached compile.
        let again = d.run_launch(&spec, &mut buffer).unwrap();
        assert!(again.cache_hit);
        assert!(again.lookup.hit);
        assert_eq!(again.stats.cycles, out.stats.cycles);
    }

    #[test]
    fn ir_launches_compile_through_the_shared_cache() {
        let cache = Arc::new(CompileCache::new());
        let budget = RecoveryConfig::default().watchdog_cycle_budget;
        let mut d0 = Device::new(0, DeviceConfig::default(), budget, Arc::clone(&cache), None);
        let mut d1 = Device::new(1, DeviceConfig::default(), budget, Arc::clone(&cache), None);
        let x = int_vector(64, 1);
        let y = int_vector(64, 2);
        let spec = LaunchSpec::saxpy_ir(3, &x, &y);
        let mut buffer = vec![0u32; 16384];
        let first = d0.run_launch(&spec, &mut buffer).unwrap();
        assert!(!first.lookup.hit);
        assert_eq!(
            &buffer[spec.out_off..spec.out_off + spec.out_len],
            spec.expected.as_slice()
        );
        // A *different* device reuses the pool-wide compiled artifact.
        let second = d1.run_launch(&spec, &mut buffer).unwrap();
        assert!(second.lookup.hit);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn launch_errors_are_typed() {
        let mut d = device();
        let x = int_vector(16, 1);
        let mut spec = LaunchSpec::sum(&x);
        spec.source = simt_kernels::KernelSource::Asm("  bogus r1".into());
        let mut buffer = vec![0u32; 16384];
        match d.run_launch(&spec, &mut buffer) {
            Err(RuntimeError::Asm(_)) => {}
            other => panic!("expected Asm error, got {other:?}"),
        }
        // An IR kernel that exceeds the register file is a typed
        // Compile error.
        let mut ir_spec = LaunchSpec::fir_ir(&int_vector(16 + 15, 2), &int_vector(16, 3), 16);
        ir_spec.config = ir_spec.config.with_regs_per_thread(2);
        match d.run_launch(&ir_spec, &mut buffer) {
            Err(RuntimeError::Compile(e)) => assert!(e.contains("register"), "{e}"),
            other => panic!("expected Compile error, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_launch_keeps_its_processor_build() {
        let mut d = device();
        let mut buffer = pattern(1024, 3);
        let good = &contract_kernels()[0];
        assert!(!d.run_launch(good, &mut buffer).unwrap().cache_hit);
        // A trap mid-store, then a program the build rejects at load
        // (r40 on a 16-register build): neither drops the build.
        let trapping = asm_spec(
            "trapping",
            "  stid r1\n  muli r15, r1, 25\n  sts [r15+24], r1\n  exit",
            Vec::new(),
        );
        let unloadable = asm_spec("unloadable", "  movi r40, 1\n  exit", Vec::new());
        for (bad, variant) in [(&trapping, "Exec"), (&unloadable, "Load")] {
            let before = buffer.clone();
            let err = d.run_launch(bad, &mut buffer).unwrap_err();
            assert!(format!("{err:?}").starts_with(variant), "{err:?}");
            assert!(buffer == before, "{}", bad.name);
            let want = full_copy_rule(good, &buffer);
            let out = d.run_launch(good, &mut buffer).unwrap();
            assert!(out.cache_hit, "the launch after {} rebuilt", bad.name);
            assert!(buffer == want, "the launch after {}", bad.name);
        }
        assert_eq!(d.cache.len(), 1);
    }

    #[test]
    fn watchdog_kills_over_budget_launches_without_touching_the_buffer() {
        let mut d = Device::new(
            0,
            DeviceConfig::default(),
            10, // far below any real kernel's cycle count
            Arc::new(CompileCache::new()),
            None,
        );
        let x = int_vector(64, 1);
        let y = int_vector(64, 2);
        let (spec, inputs) = LaunchSpec::saxpy(3, &x, &y).detach_inputs();
        let mut buffer = vec![0u32; 16384];
        for (off, words) in &inputs {
            buffer[*off..*off + words.len()].copy_from_slice(words);
        }
        let before = buffer.clone();
        match d.run_launch(&spec, &mut buffer) {
            Err(RuntimeError::Timeout {
                kernel,
                device,
                budget_cycles,
            }) => {
                assert_eq!(device, 0);
                assert_eq!(budget_cycles, 10);
                assert_eq!(kernel, spec.name);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(buffer, before, "a killed launch must not write back");
    }
}
