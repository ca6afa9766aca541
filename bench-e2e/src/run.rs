//! Set-up, the deterministic modeled leg, and the timed rounds.

use crate::model;
use crate::spans::Spans;
use crate::stats::{self, Samples};
use crate::workloads::{self, Load, Session, SplitMix64, WaveOut, STREAMS};
use simt_runtime::RuntimeConfig;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fewest set-ups per run; `setup_s` is the median over all of them.
const SETUPS: usize = 5;
/// Set-ups repeat until this much time went into them…
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// …but never more often than this.
const MAX_SETUPS: usize = 256;
/// Rounds run and discarded before the measured ones.
const WARMUP_ROUNDS: usize = 3;
/// Host-clock metrics are refused from fewer measured rounds than this.
const MIN_ROUNDS: usize = 20;
/// Iterations of the frozen calibration loop (~0.1 ms).
const CALIB_ITERS: u64 = 1 << 16;
/// The calibration loop runs between waves once this much time passed.
const CALIB_EVERY: Duration = Duration::from_millis(2);
/// What the calibration loop takes on the quiet box the baseline was
/// measured on (1.49 ns per step). Host-clock rates are scaled by
/// `observed / reference`, i.e. reported per second of that box.
pub const CALIB_REF_NS: f64 = 97_500.0;

/// The default pool (2 devices — pinned, whatever `nproc` says) or a
/// 1-device pool, clocked at the fitter's Fmax.
pub fn pool(devices: usize, fmax_mhz: f64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::with_devices(devices);
    cfg.device.fmax_mhz = fmax_mhz;
    cfg
}

/// What the deterministic leg measures, all on the modeled clock.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ModelLeg {
    /// Modeled makespan of the leg, cycles.
    pub makespan_cycles: u64,
    /// Compute + copy busy cycles over all devices.
    pub device_cycles: u64,
    /// Launches, thread-ops, kernel cycles, checks.
    pub out: WaveOut,
    /// The clock the cycles are multiplied by.
    pub fmax_mhz: f64,
}

impl ModelLeg {
    /// Makespan at the fitter clock, µs.
    pub fn makespan_us(&self) -> f64 {
        self.makespan_cycles as f64 / self.fmax_mhz
    }
    /// Busy device cycles per launch.
    pub fn cycles_per_launch(&self) -> f64 {
        self.device_cycles as f64 / self.out.launches as f64
    }
    /// Thread-operations per kernel cycle (ceiling: 16 SPs).
    pub fn thread_ops_per_cycle(&self) -> f64 {
        self.out.thread_ops as f64 / self.out.cycles as f64
    }
}

/// One pass over the workload on a fresh 1-device pool, enqueued while
/// the pool is paused so the drain order is fixed.
fn model_leg_once(load: &Arc<Load>, fmax_mhz: f64) -> ModelLeg {
    let mut sess = Session::new(load, pool(1, fmax_mhz), STREAMS);
    let mut sp = Spans::off();
    let mut out = WaveOut::default();
    match &**load {
        Load::Stream(_) => {
            sess.rt.pause();
            let waves: Vec<_> = (0..sess.waves_per_cycle())
                .map(|_| sess.enqueue(&mut sp))
                .collect();
            sess.rt.resume();
            for w in waves {
                out.add(&sess.collect(w, &mut sp));
            }
        }
        Load::Graph(_) => out = sess.wave(&mut sp),
    }
    let stats = sess.rt.stats();
    ModelLeg {
        // A replay's span is its own; the pool's makespan is the streams'.
        makespan_cycles: match &**load {
            Load::Stream(_) => stats.makespan_cycles,
            Load::Graph(_) => out.span_cycles,
        },
        device_cycles: stats.device_cycles(),
        out,
        fmax_mhz,
    }
}

/// The deterministic leg, executed twice; `Err` if the two differ.
pub fn model_leg(load: &Arc<Load>, fmax_mhz: f64) -> Result<ModelLeg, String> {
    let a = model_leg_once(load, fmax_mhz);
    let b = model_leg_once(load, fmax_mhz);
    if a != b {
        return Err(format!(
            "deterministic leg differs between two executions:\n  {a:?}\n  {b:?}"
        ));
    }
    Ok(a)
}

/// A workload ready for its first timed round.
pub struct Ready {
    /// The seeded inputs.
    pub load: Arc<Load>,
    /// The warmed default pool with the workload bound.
    pub sess: Session,
    /// The modeled-clock leg.
    pub leg: ModelLeg,
    /// What the warm-up wave did.
    pub warm: WaveOut,
}

/// Everything between process start and the first timed round: input
/// generation, the fitter sweep, the deterministic leg, pool spin-up
/// and one warm-up cycle (compiles or instantiates every kernel).
pub fn set_up(workload: &str, seed: u64) -> Result<Ready, String> {
    let load = Arc::new(
        workloads::build(workload, seed).ok_or_else(|| format!("unknown workload `{workload}`"))?,
    );
    let fmax_mhz = model::system_compile(seed).fmax_restricted();
    let leg = model_leg(&load, fmax_mhz)?;
    let mut sess = Session::new(&load, pool(2, fmax_mhz), STREAMS);
    let mut warm = WaveOut::default();
    for _ in 0..sess.waves_per_cycle() {
        warm.add(&sess.wave(&mut Spans::off()));
    }
    Ok(Ready {
        load,
        sess,
        leg,
        warm,
    })
}

/// Set up repeatedly — at least [`SETUPS`] times and for at least
/// [`SETUP_BUDGET`] — and return the last set-up with the median
/// seconds, corrected for the box's load like the rounds.
pub fn set_up_repeated(
    workload: &str,
    seed: u64,
    calib: &Calibrator,
) -> Result<(Ready, f64), String> {
    let began = Instant::now();
    let (mut secs, mut loads) = (Vec::new(), vec![calib.sample()]);
    let mut last = None;
    while secs.len() < SETUPS || (began.elapsed() < SETUP_BUDGET && secs.len() < MAX_SETUPS) {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up(workload, seed)?);
        secs.push(t.elapsed().as_secs_f64());
        loads.push(calib.sample());
    }
    let load_factor = stats::median(&loads) / CALIB_REF_NS;
    Ok((
        last.expect("SETUPS >= 1"),
        stats::median(&secs) / load_factor,
    ))
}

/// A frozen SplitMix64 loop. Its time tells a slow machine from a slow
/// commit: it never changes, so when it runs slower the box is loaded.
fn calib_loop_ns() -> f64 {
    let mut rng = SplitMix64(0x000C_A11B_8A7E);
    let t = Instant::now();
    let mut acc = 0u64;
    for _ in 0..CALIB_ITERS {
        acc ^= rng.next();
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// Runs the calibration loop on two threads at once, as many as the
/// pool has workers, and reports the slower: a wave ends when its
/// slowest stream drains, so the slower core is the one that counts.
/// (Measured here: with one thread the loop tends to land on the less
/// loaded core and under-corrects — README.md has the spreads.)
pub struct Calibrator {
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    helper: Option<JoinHandle<()>>,
}

impl Calibrator {
    /// Start the helper thread.
    pub fn new() -> Self {
        let (go, wait) = channel::<()>();
        let (report, done) = channel::<f64>();
        let helper = std::thread::spawn(move || {
            while wait.recv().is_ok() && report.send(calib_loop_ns()).is_ok() {}
        });
        Calibrator {
            go: Some(go),
            done,
            helper: Some(helper),
        }
    }

    /// One sample, ns.
    pub fn sample(&self) -> f64 {
        let go = self.go.as_ref().expect("sender lives until drop");
        go.send(()).expect("calibration helper is alive");
        let mine = calib_loop_ns();
        let theirs = self.done.recv().expect("calibration helper is alive");
        mine.max(theirs)
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        drop(self.go.take());
        if let Some(h) = self.helper.take() {
            let _ = h.join();
        }
    }
}

/// One round: whole waves until `len` has elapsed, the calibration loop
/// interleaved every [`CALIB_EVERY`].
#[derive(Clone, Copy)]
pub struct Round {
    /// Seconds spent inside waves (calibration excluded).
    pub secs: f64,
    /// Summed wave outcomes.
    pub out: WaveOut,
    /// Mean of the calibration samples taken during the round, ns.
    pub calib_ns: f64,
}

impl Round {
    /// How much slower than the reference the box ran this round.
    pub fn load_factor(&self) -> f64 {
        self.calib_ns / CALIB_REF_NS
    }
    /// Launches per host second, as timed.
    pub fn raw_launches_per_s(&self) -> f64 {
        self.out.launches as f64 / self.secs
    }
    /// Launches per host second, corrected for the box's load.
    pub fn launches_per_s(&self) -> f64 {
        self.raw_launches_per_s() * self.load_factor()
    }
    /// Thread-operations per host second, corrected likewise.
    pub fn thread_ops_per_s(&self) -> f64 {
        self.out.thread_ops as f64 / self.secs * self.load_factor()
    }
}

/// Run one round, appending each wave's latency (µs) to `wave_us`.
pub fn round(
    sess: &mut Session,
    sp: &mut Spans,
    len: Duration,
    wave_us: &mut Samples,
    calib: &Calibrator,
) -> Round {
    let start = Instant::now();
    let (mut calib_sum, mut calib_n) = (calib.sample(), 1.0);
    let mut out = WaveOut::default();
    let mut secs = 0.0;
    let mut last_calib = Instant::now();
    while start.elapsed() < len {
        sess.prepare();
        let t = Instant::now();
        out.add(&sess.wave(sp));
        let wave = t.elapsed().as_secs_f64();
        secs += wave;
        wave_us.push(wave * 1e6);
        if last_calib.elapsed() >= CALIB_EVERY {
            calib_sum += calib.sample();
            calib_n += 1.0;
            last_calib = Instant::now();
        }
    }
    Round {
        secs,
        out,
        calib_ns: calib_sum / calib_n,
    }
}

/// `VmHWM` of this process, MiB.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// The untraced timed run of one workload.
pub struct Timed {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// The modeled-clock leg.
    pub leg: ModelLeg,
    /// The measured rounds.
    pub rounds: Vec<Round>,
    /// Wave latencies, µs.
    pub wave_us: Samples,
    /// Whether a wave runs on the generator thread alone (graph
    /// replay) rather than on the pool's workers.
    pub single_thread: bool,
    /// Everything checked, warm-up and deterministic leg included.
    pub checked: WaveOut,
    /// `VmHWM` after the last round, MiB.
    pub rss_mib: f64,
}

/// Set up, warm up, and measure `seconds` worth of rounds.
pub fn timed(
    workload: &str,
    seed: u64,
    seconds: f64,
    round_len: Duration,
) -> Result<Timed, String> {
    let total = (seconds / round_len.as_secs_f64()).floor() as usize;
    let measured = total.saturating_sub(WARMUP_ROUNDS);
    if measured < MIN_ROUNDS {
        return Err(format!(
            "{seconds} s gives {measured} measured rounds of {round_len:?}; host-clock metrics \
             need at least {MIN_ROUNDS}"
        ));
    }
    let calib = Calibrator::new();
    let (mut ready, setup_s) = set_up_repeated(workload, seed, &calib)?;
    let mut checked = ready.leg.out;
    checked.add(&ready.warm);
    let mut sp = Spans::off();
    let mut wave_us = Samples::default();
    for _ in 0..WARMUP_ROUNDS {
        checked.add(&round(&mut ready.sess, &mut sp, round_len, &mut wave_us, &calib).out);
    }
    wave_us.clear();
    let rounds: Vec<Round> = (0..measured)
        .map(|_| round(&mut ready.sess, &mut sp, round_len, &mut wave_us, &calib))
        .collect();
    for r in &rounds {
        checked.add(&r.out);
    }
    Ok(Timed {
        setup_s,
        leg: ready.leg,
        rounds,
        wave_us,
        single_thread: matches!(&*ready.load, Load::Graph(_)),
        checked,
        rss_mib: rss_mib(),
    })
}

/// The quiet-window quantile of wave latency (see [`Timed::host_rates`]).
const QUIET_PCT: f64 = 5.0;

impl Timed {
    /// `(launches, thread-ops)` per host second.
    ///
    /// A stream wave keeps three threads busy for milliseconds; on a
    /// shared box none escapes interference, so the estimator is the
    /// median over rounds of the load-corrected rate. A graph replay is
    /// tens of microseconds on one thread; some always run undisturbed,
    /// so the estimator is the wave at the [`QUIET_PCT`]th percentile
    /// of latency, uncorrected. README.md has the measured spreads.
    pub fn host_rates(&self) -> (f64, f64) {
        if self.single_thread {
            let mut all = WaveOut::default();
            for r in &self.rounds {
                all.add(&r.out);
            }
            // `wave_us` saw exactly the measured rounds' waves.
            let waves = self.wave_us.seen() as f64;
            let per_s = 1e6 / stats::percentile(self.wave_us.kept(), QUIET_PCT);
            (
                all.launches as f64 / waves * per_s,
                all.thread_ops as f64 / waves * per_s,
            )
        } else {
            let over_rounds = |f: fn(&Round) -> f64| {
                stats::median(&self.rounds.iter().map(f).collect::<Vec<f64>>())
            };
            (
                over_rounds(Round::launches_per_s),
                over_rounds(Round::thread_ops_per_s),
            )
        }
    }
}
