//! # simt-runtime — a stream-oriented host runtime for simulated SIMT
//! devices
//!
//! The silicon side of this reproduction (the `simt-core` processor,
//! `simt-system`'s stamped multi-core, `fpga-fitter`'s timing closure)
//! answers *how fast one device clocks*. This crate answers the next
//! question the paper's §6 poses: how a host keeps a *pool* of such
//! devices saturated under real, concurrent, mixed-kernel traffic.
//!
//! The model is the CUDA host runtime, re-grounded on simulated
//! devices:
//!
//! * a [`Runtime`] owns a pool of devices (one scheduler worker thread
//!   each) and hands out [`Stream`]s — ordered command queues with no
//!   device affinity: every command is *placed* on the least-loaded
//!   device engine at dispatch;
//! * streams enqueue **asynchronous** host→device copies, kernel
//!   [`LaunchSpec`](simt_kernels::LaunchSpec) launches, and
//!   device→host copies; copies are modeled at interconnect cost
//!   (setup latency + words/width, the `simt-system` link model);
//! * [`Event`]s order commands *across* streams and let the host block
//!   on a point in a stream;
//! * the scheduler drains ready commands in batches, reusing cached
//!   processor builds for compatible back-to-back launches, and
//!   maintains a discrete-event **virtual timeline** (per-device
//!   compute + copy engines) whose makespan is the modeled wall-clock
//!   of the submitted job graph;
//! * per-stream and per-device cycle and wall-clock accounting builds
//!   on the core's [`ExecStats`](simt_core::ExecStats) machinery
//!   ([`RuntimeStats`]);
//! * hot repeated DAGs graduate to **execution graphs**: capture a
//!   stream (`Stream::begin_capture`/`end_capture`) or build a
//!   [`GraphBuilder`] DAG, fuse back-to-back IR launch chains into
//!   single kernels ([`fuse()`]), [`instantiate`](Runtime::instantiate)
//!   through the pool-wide compile cache, and
//!   [`replay`](Runtime::replay) with topological least-loaded
//!   placement and parameterized re-launch.
//!
//! ## Quick example
//!
//! ```
//! use simt_runtime::{Runtime, RuntimeConfig};
//! use simt_kernels::LaunchSpec;
//! use simt_kernels::workload::int_vector;
//!
//! let rt = Runtime::new(RuntimeConfig::default()); // 2 devices
//! let s = rt.stream();
//! let x = int_vector(256, 1);
//! let y = int_vector(256, 2);
//! let h = s.launch(LaunchSpec::saxpy(3, &x, &y));
//! let out = s.copy_out(simt_kernels::vector::Z_OFF, 256);
//! rt.synchronize().unwrap();
//! assert!(h.wait().unwrap().cycles > 0);
//! assert_eq!(out.wait().unwrap(), LaunchSpec::saxpy(3, &x, &y).expected);
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod graph;
pub mod pool;
pub mod scheduler;
pub mod stats;
pub mod stream;

use scheduler::{worker_loop, Shared};
use simt_compiler::CompileCache;
use simt_core::PcProfile;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

pub use event::Event;
pub use graph::{GraphExec, GraphReplay, NodePlacement};
pub use pool::{DeviceConfig, RuntimeConfig};
pub use stats::{CommandKind, DeviceStats, RuntimeStats, StreamStats};
pub use stream::{CopyHandle, LaunchHandle, Stream};
// The graph vocabulary, so runtime users need no extra import to
// capture, fuse and replay.
pub use simt_graph::{fuse, ExecGraph, FusionReport, GraphBuilder, GraphError, NodeId};
// The event vocabulary likewise: configure with ProfileConfig, read
// the trace back as `simt_profile::Event`s through Runtime::tracer.
pub use simt_profile::{CacheTier, EventRing, ProfileConfig, Record};
// And the metrics vocabulary: snapshot with Runtime::metrics_snapshot,
// watch with Runtime::health, export via simt_metrics::prometheus.
pub use simt_metrics::{HealthConfig, HealthFinding, HealthMonitor, HealthReport, MetricsSnapshot};
// And the forensics vocabulary: the black-box window behind
// Runtime::flight, postmortem bundles from Runtime::postmortem.
pub use simt_forensics::{
    gauge_timelines, FlightDump, GaugeTimeline, KernelHotspots, PcHotspot, PostmortemReport,
    POSTMORTEM_SCHEMA_VERSION,
};
// And the chaos vocabulary: configure with RuntimeConfig::with_chaos /
// with_recovery, observe through Runtime::device_health and the typed
// fault errors above.
pub use simt_chaos::{
    ChaosConfig, DeviceHealth, FaultKind, FaultPlan, PlannedFault, RecoveryConfig, StickyDevice,
};

/// Anything that can go wrong inside the runtime. Cloneable (sticky
/// stream errors fan out to every queued handle), so inner errors are
/// carried as rendered messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Kernel assembly failed.
    Asm(String),
    /// IR compilation failed (register pressure, malformed IR, …).
    Compile(String),
    /// Processor configuration rejected.
    Config(String),
    /// Program rejected at load.
    Load(String),
    /// Device-side trap during execution, with its provenance: the
    /// kernel that trapped and the device it ran on (structured so
    /// retry/poison logic never parses strings).
    Exec {
        /// Kernel name.
        kernel: String,
        /// Device the launch ran on.
        device: usize,
        /// Rendered trap detail.
        detail: String,
    },
    /// The watchdog killed a launch that exceeded its modeled-cycle
    /// budget ([`simt_chaos::RecoveryConfig::watchdog_cycle_budget`]).
    Timeout {
        /// Kernel name.
        kernel: String,
        /// Device the launch was charged to.
        device: usize,
        /// The budget it overran, in modeled cycles.
        budget_cycles: u64,
    },
    /// Injected transient launch failure (chaos engine).
    LaunchFault {
        /// Kernel name.
        kernel: String,
        /// Device the attempt was blamed on.
        device: usize,
        /// Zero-based attempt number that faulted.
        attempt: u32,
    },
    /// Injected copy-engine fault (chaos engine).
    CopyFault {
        /// Device the attempt was blamed on.
        device: usize,
        /// Zero-based attempt number that faulted.
        attempt: u32,
    },
    /// The device is failing every command dispatched to it (sticky
    /// whole-device failure).
    DeviceFailed {
        /// The failing device.
        device: usize,
    },
    /// The stream was poisoned by an earlier terminal failure
    /// (CUDA-style sticky stream errors): every subsequent command
    /// resolves with this until [`Stream::reset`] clears it. The first
    /// failing command keeps its original typed error.
    StreamPoisoned {
        /// The poisoned stream.
        stream: usize,
    },
    /// A copy fell outside the stream's device buffer.
    CopyOutOfBounds {
        /// Requested word offset.
        offset: usize,
        /// Requested length in words.
        len: usize,
        /// Buffer capacity in words.
        memory_words: usize,
    },
    /// The runtime was dropped with this command still queued.
    Shutdown,
    /// The command was recorded into a capturing stream's execution
    /// graph instead of executing; its handle carries no result (the
    /// graph replay does).
    Captured,
    /// Stream-capture misuse: double `begin_capture`, `end_capture` on
    /// a stream that did not originate the capture, or an empty or
    /// invalid capture.
    Capture(String),
    /// Execution-graph instantiation or replay rejected the graph.
    Graph(String),
    /// A device id the pool does not have.
    DeviceOutOfRange {
        /// The requested device.
        device: usize,
        /// Devices in the pool.
        devices: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Asm(e) => write!(f, "assembly: {e}"),
            RuntimeError::Compile(e) => write!(f, "compile: {e}"),
            RuntimeError::Config(e) => write!(f, "config: {e}"),
            RuntimeError::Load(e) => write!(f, "load: {e}"),
            RuntimeError::Exec {
                kernel,
                device,
                detail,
            } => write!(f, "exec: kernel `{kernel}` on device{device}: {detail}"),
            RuntimeError::Timeout {
                kernel,
                device,
                budget_cycles,
            } => write!(
                f,
                "watchdog timeout: kernel `{kernel}` on device{device} exceeded its \
                 {budget_cycles}-cycle budget"
            ),
            RuntimeError::LaunchFault {
                kernel,
                device,
                attempt,
            } => write!(
                f,
                "transient launch fault: kernel `{kernel}` on device{device} (attempt {attempt})"
            ),
            RuntimeError::CopyFault { device, attempt } => {
                write!(f, "copy-engine fault on device{device} (attempt {attempt})")
            }
            RuntimeError::DeviceFailed { device } => {
                write!(f, "device{device} is failing every command (sticky fault)")
            }
            RuntimeError::StreamPoisoned { stream } => write!(
                f,
                "stream {stream} is poisoned by an earlier failure; Stream::reset() clears it"
            ),
            RuntimeError::CopyOutOfBounds {
                offset,
                len,
                memory_words,
            } => write!(
                f,
                "copy [{offset}, {offset}+{len}) outside device buffer of {memory_words} words"
            ),
            RuntimeError::Shutdown => write!(f, "runtime dropped with the command still queued"),
            RuntimeError::Captured => write!(
                f,
                "command was captured into an execution graph, not executed"
            ),
            RuntimeError::Capture(e) => write!(f, "stream capture: {e}"),
            RuntimeError::Graph(e) => write!(f, "graph: {e}"),
            RuntimeError::DeviceOutOfRange { device, devices } => {
                write!(f, "device{device} out of range for a {devices}-device pool")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Hottest PCs reported per kernel in a postmortem bundle.
const HOTSPOT_PCS: usize = 8;

/// The host runtime: a pool of simulated devices behind stream queues.
pub struct Runtime {
    shared: Arc<Shared>,
    compile_cache: Arc<CompileCache>,
    /// Execution context for graph replay (host-side; placement on the
    /// pool's virtual timelines is separate — see [`Runtime::replay`]).
    replay_device: Mutex<pool::Device>,
    /// Pool-wide per-PC profile sink (`Some` only with
    /// [`ProfileConfig::per_pc`]).
    pc_sink: Option<Arc<pool::PcSink>>,
    /// Postmortem bundles assembled automatically when a device was
    /// quarantined (collected at synchronization points; workers can
    /// only queue the device id — assembly needs the full runtime).
    quarantine_reports: Mutex<Vec<PostmortemReport>>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Spin up the pool: one scheduler worker (and simulated device) per
    /// configured device, all sharing one content-addressed
    /// [`CompileCache`] (LRU-bounded per
    /// [`RuntimeConfig::compile_cache_capacity`]).
    ///
    /// # Panics
    /// If the configuration asks for zero devices.
    pub fn new(cfg: RuntimeConfig) -> Self {
        assert!(cfg.devices >= 1, "a pool needs at least one device");
        let shared = Arc::new(Shared::new(cfg.clone()));
        let compile_cache = Arc::new(match cfg.compile_cache_capacity {
            Some(cap) => CompileCache::with_capacity(cap),
            None => CompileCache::new(),
        });
        let pc_sink = cfg
            .profile
            .as_ref()
            .filter(|p| p.per_pc)
            .map(|_| Arc::new(pool::PcSink::default()));
        if let Some(chaos) = &cfg.chaos {
            if let Some(sticky) = &chaos.sticky {
                assert!(
                    sticky.device < cfg.devices,
                    "sticky fault targets device{} but the pool has {} devices",
                    sticky.device,
                    cfg.devices
                );
            }
        }
        let replay_device = Mutex::new(pool::Device::new(
            cfg.devices,
            cfg.device.clone(),
            cfg.recovery.watchdog_cycle_budget,
            Arc::clone(&compile_cache),
            pc_sink.clone(),
        ));
        let workers = (0..cfg.devices)
            .map(|d| {
                let shared = Arc::clone(&shared);
                let device = pool::Device::new(
                    d,
                    cfg.device.clone(),
                    cfg.recovery.watchdog_cycle_budget,
                    Arc::clone(&compile_cache),
                    pc_sink.clone(),
                );
                std::thread::Builder::new()
                    .name(format!("simt-dev{d}"))
                    .spawn(move || worker_loop(shared, device))
                    .expect("spawn device worker")
            })
            .collect();
        Runtime {
            shared,
            compile_cache,
            replay_device,
            pc_sink,
            quarantine_reports: Mutex::new(Vec::new()),
            workers,
        }
    }

    /// The pool configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.cfg
    }

    /// The pool-wide content-addressed compile cache (hit/miss counters
    /// and artifact count).
    pub fn compile_cache(&self) -> &CompileCache {
        &self.compile_cache
    }

    /// Create a stream. Streams are not device-affine: every command is
    /// placed on the least-loaded device at dispatch.
    pub fn stream(&self) -> Stream {
        let id = self.shared.add_stream();
        Stream {
            id,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Create an event (unsignaled).
    pub fn event(&self) -> Event {
        Event::new()
    }

    /// Block until every enqueued command on every stream has completed;
    /// returns the first error the runtime hit, if any (sticky).
    pub fn synchronize(&self) -> Result<(), RuntimeError> {
        let r = self.shared.synchronize();
        self.collect_quarantines();
        r
    }

    /// Stop the pool from a shared reference: workers exit, every
    /// still-queued command resolves with [`RuntimeError::Shutdown`],
    /// and an in-flight [`Runtime::replay`] stops at its next node.
    /// Threads are joined when the runtime drops; further enqueues
    /// also resolve with `Shutdown`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.wake_all();
        self.shared.drain_after_shutdown();
    }

    /// Current health of every pool device, indexed by device id.
    /// Driven by the per-device fault tracker against
    /// [`RecoveryConfig::degrade_after`] / [`RecoveryConfig::quarantine_after`];
    /// quarantined devices receive no placements until
    /// [`Runtime::reset_device`] readmits them.
    pub fn device_health(&self) -> Vec<DeviceHealth> {
        self.shared.device_health()
    }

    /// Readmit `device` into the placement pool: health back to
    /// [`DeviceHealth::Healthy`], fault counter cleared. When the
    /// device is the chaos plan's sticky-failure target the sticky
    /// fault retires too — the reset models a replaced part. A device
    /// the pool does not have is a typed error.
    pub fn reset_device(&self, device: usize) -> Result<(), RuntimeError> {
        let devices = self.config().devices;
        if device >= devices {
            return Err(RuntimeError::DeviceOutOfRange { device, devices });
        }
        self.shared.reset_device(device);
        Ok(())
    }

    /// Postmortem bundles assembled automatically for quarantined
    /// devices (reason `device-quarantined`), in quarantine order.
    /// Collection happens at synchronization points and on this call;
    /// each bundle is returned once. Empty when metrics are off (a
    /// postmortem needs a snapshot) or nothing was quarantined.
    pub fn quarantine_postmortems(&self) -> Vec<PostmortemReport> {
        self.collect_quarantines();
        std::mem::take(&mut *self.quarantine_reports.lock().unwrap())
    }

    /// Assemble bundles for devices quarantined since the last
    /// collection.
    fn collect_quarantines(&self) {
        for _quarantined in self.shared.take_pending_quarantines() {
            if let Some(report) = self.postmortem("device-quarantined") {
                self.quarantine_reports.lock().unwrap().push(report);
            }
        }
    }

    /// Snapshot the per-stream / per-device accounting.
    pub fn stats(&self) -> RuntimeStats {
        let mut stats = self.shared.stats();
        stats.compile_evictions = self.compile_cache.evictions();
        stats
    }

    /// The trace, when the runtime was built with a [`ProfileConfig`]
    /// (`None` otherwise): a snapshot of the pool's event ring, holding
    /// at least the newest [`ProfileConfig::events`] transitions in
    /// full detail. The snapshot is the caller's own — it clones the
    /// surviving records while holding the scheduler lock, so take it
    /// once and read it ([`EventRing::events`], [`EventRing::records`],
    /// [`EventRing::dropped`]) as often as needed; export it with
    /// [`simt_profile::chrome::chrome_trace`] or
    /// [`simt_profile::summary::summarize`].
    pub fn tracer(&self) -> Option<EventRing> {
        self.config().profile.as_ref()?;
        self.shared.with_events(|ring| ring.cloned())
    }

    /// Snapshot the always-on pool metrics (`None` iff the runtime was
    /// built with [`RuntimeConfig::with_metrics`]`(false)`): every
    /// counter, watermark gauge and modeled-cycle latency histogram of
    /// the scheduler, plus compile/decode cache counters with derived
    /// hit-rate gauges and the pool's modeled occupancy. The snapshot
    /// is sorted and all its quantities are modeled cycles or counts —
    /// export it with [`simt_metrics::prometheus::render`] or serde.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        use simt_metrics::names;
        let mut snap = self.shared.metrics_snapshot()?;
        let cc = &self.compile_cache;
        let (hits, misses) = (cc.hits(), cc.misses());
        let (dhits, dmisses) = (cc.decode_hits(), cc.decode_misses());
        snap.push_counter(names::COMPILE_CACHE_HITS, "", hits);
        snap.push_counter(names::COMPILE_CACHE_MISSES, "", misses);
        snap.push_counter(names::COMPILE_CACHE_EVICTIONS, "", cc.evictions());
        snap.push_counter(names::DECODE_CACHE_HITS, "", dhits);
        snap.push_counter(names::DECODE_CACHE_MISSES, "", dmisses);
        let rate = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        };
        snap.push_gauge(names::COMPILE_HIT_RATE, "", rate(hits, misses));
        snap.push_gauge(names::DECODE_HIT_RATE, "", rate(dhits, dmisses));
        // Modeled occupancy: busy cycles (compute and copy, hung
        // kernels included) placed across all devices over devices ×
        // makespan. Not `RuntimeStats::modeled_occupancy`, which counts
        // kernel cycles only.
        let busy: u64 = snap
            .counters
            .iter()
            .filter(|c| c.name == names::DEVICE_BUSY_CYCLES)
            .map(|c| c.value)
            .sum();
        let makespan = snap
            .gauge(names::MAKESPAN_CYCLES, "")
            .map(|g| g.value)
            .unwrap_or(0.0);
        let denom = self.config().devices as f64 * makespan;
        snap.push_gauge(
            names::OCCUPANCY,
            "",
            if denom > 0.0 {
                (busy as f64 / denom).min(1.0)
            } else {
                0.0
            },
        );
        snap.sort();
        Some(snap)
    }

    /// Run the health watchdog over a fresh metrics snapshot with the
    /// pool's configured thresholds ([`RuntimeConfig::with_health`];
    /// `None` iff metrics are off).
    pub fn health(&self) -> Option<HealthReport> {
        let monitor = HealthMonitor::new(self.config().health.clone());
        self.metrics_snapshot().map(|snap| monitor.check(&snap))
    }

    /// The always-on black box (`None` iff the runtime was built with
    /// [`RuntimeConfig::with_flight_capacity`]`(0)`): the newest
    /// `flight_capacity` records of the pool's event ring — on a
    /// profiled pool, the tail of the trace. Postmortems bundle it
    /// automatically.
    pub fn flight(&self) -> Option<FlightDump> {
        let capacity = self.config().flight_capacity;
        (capacity > 0).then(|| self.flight_window())
    }

    /// The newest `flight_capacity` records of the event ring.
    fn flight_window(&self) -> FlightDump {
        let capacity = self.config().flight_capacity;
        self.shared
            .with_events(|ring| FlightDump::capture(ring, capacity))
    }

    /// Assemble a [`PostmortemReport`]: the health walk, the full
    /// metrics snapshot, the black-box window of the event ring, gauge
    /// timelines derived from it, and — when the runtime
    /// was built with [`ProfileConfig::per_pc`] — per-PC hotspots with
    /// disassembly and IR source-map attribution for every profiled
    /// kernel.
    ///
    /// Health findings observed during assembly are also recorded into
    /// the event ring (as [`simt_profile::Event::Health`]) so the dump
    /// shows *when* the watchdog spoke relative to scheduler activity.
    /// Returns `None` iff metrics are off (a postmortem without a
    /// snapshot names nothing).
    pub fn postmortem(&self, reason: &str) -> Option<PostmortemReport> {
        let metrics = self.metrics_snapshot()?;
        let health = HealthMonitor::new(self.config().health.clone()).check(&metrics);
        for finding in &health.findings {
            self.shared.record(simt_profile::Event::Health {
                finding: finding.label(),
            });
        }
        let flight = self.flight_window();
        let timelines = gauge_timelines(&flight);
        let hotspots = self.hotspots();
        Some(PostmortemReport {
            schema_version: POSTMORTEM_SCHEMA_VERSION,
            reason: reason.to_string(),
            health,
            metrics,
            flight,
            timelines,
            hotspots,
        })
    }

    /// Fold the per-PC sink into postmortem hotspot records: per kernel
    /// (sorted by name) the hottest PCs with disassembly, plus IR
    /// source-map attribution re-derived by compiling the retained
    /// kernel source. Empty without [`ProfileConfig::per_pc`].
    fn hotspots(&self) -> Vec<KernelHotspots> {
        use simt_isa::disasm::format_instruction;
        let sink = match &self.pc_sink {
            Some(s) => s,
            None => return Vec::new(),
        };
        let profiles = sink.lock().unwrap();
        let mut kernels: Vec<&String> = profiles.keys().collect();
        kernels.sort();
        kernels
            .into_iter()
            .map(|name| {
                let kp = &profiles[name];
                let source_map = match &kp.source {
                    simt_kernels::KernelSource::Ir(kernel) => {
                        simt_compiler::compile(kernel, &kp.config, simt_compiler::OptLevel::Full)
                            .ok()
                            .map(|c| c.source_map)
                    }
                    simt_kernels::KernelSource::Asm(_) => None,
                };
                let insts = kp.program.instructions();
                let pcs = kp
                    .profile
                    .hottest(HOTSPOT_PCS)
                    .into_iter()
                    .map(|(pc, c)| PcHotspot {
                        pc,
                        issues: c.issues,
                        cycles: c.cycles,
                        thread_ops: c.thread_ops,
                        asm: insts
                            .get(pc)
                            .map(format_instruction)
                            .unwrap_or_else(|| "<out of range>".to_string()),
                        ir_value: source_map
                            .as_ref()
                            .and_then(|m| m.get(pc).copied().flatten()),
                    })
                    .collect();
                KernelHotspots {
                    kernel: name.clone(),
                    total_cycles: kp.profile.total_cycles(),
                    fill_cycles: kp.profile.fill_cycles,
                    pcs,
                }
            })
            .collect()
    }

    /// Hold every worker off claiming new batches (in-flight batches
    /// finish first). While paused, enqueues accumulate; [`Runtime::resume`]
    /// releases the backlog at once. With one device the drain order of
    /// a pre-built backlog is deterministic — the substrate for
    /// schedule-sensitive tests. A paused pool never goes idle:
    /// [`Runtime::synchronize`] will block until someone resumes.
    pub fn pause(&self) {
        self.shared.pause();
    }

    /// Release workers paused by [`Runtime::pause`].
    pub fn resume(&self) {
        self.shared.resume();
    }

    /// Merged per-PC execution profiles keyed by kernel name
    /// ([`simt_kernels::LaunchSpec::name`]), aggregated across every
    /// launch of that kernel on any device. Empty unless the runtime
    /// was built with [`ProfileConfig::per_pc`].
    pub fn pc_profiles(&self) -> HashMap<String, PcProfile> {
        match &self.pc_sink {
            Some(sink) => sink
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.profile.clone()))
                .collect(),
            None => HashMap::new(),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // Wake sleeping workers so they observe the flag.
        self.shared.wake_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Fail anything still queued so handles held past the runtime's
        // lifetime resolve (with `RuntimeError::Shutdown`) instead of
        // hanging their waiters.
        self.shared.drain_after_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_kernels::workload::int_vector;
    use simt_kernels::LaunchSpec;

    #[test]
    fn single_launch_roundtrip() {
        let rt = Runtime::new(RuntimeConfig::default());
        let s = rt.stream();
        let x = int_vector(128, 1);
        let spec = LaunchSpec::sum(&x);
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        let h = s.launch(spec);
        let out = s.copy_out(off, len);
        rt.synchronize().unwrap();
        assert!(h.wait().unwrap().cycles > 0);
        assert_eq!(out.wait().unwrap(), expected);
        let stats = rt.stats();
        assert_eq!(stats.launches(), 1);
        assert!(stats.makespan_cycles > 0);
        // Per-stream order, read off the ring: the launch, then the copy.
        let placed: Vec<(u64, CommandKind)> = rt
            .flight()
            .unwrap()
            .events
            .iter()
            .filter_map(|r| match r.event {
                simt_profile::Event::Placed {
                    stream: Some(0),
                    seq,
                    kind,
                    ..
                } => Some((seq, kind)),
                _ => None,
            })
            .collect();
        assert_eq!(
            placed,
            [(0, CommandKind::Launch), (1, CommandKind::CopyOut)]
        );
    }

    #[test]
    fn detached_inputs_flow_through_copies() {
        let rt = Runtime::new(RuntimeConfig::default());
        let s = rt.stream();
        let x = int_vector(256, 3);
        let y = int_vector(256, 4);
        let (spec, inputs) = LaunchSpec::saxpy(-7, &x, &y).detach_inputs();
        for (off, words) in &inputs {
            s.copy_in(*off, words);
        }
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        s.launch(spec);
        let out = s.copy_out(off, len);
        rt.synchronize().unwrap();
        assert_eq!(out.wait().unwrap(), expected);
        let stats = rt.stats();
        assert_eq!(stats.streams[0].copies, 3);
        assert!(stats.streams[0].copy_cycles > 0);
    }

    #[test]
    fn events_order_across_streams() {
        let rt = Runtime::new(RuntimeConfig::default());
        let producer = rt.stream();
        let consumer = rt.stream();

        // Producer computes a prefix sum and signals completion; the
        // consumer holds until the event fires.
        let x = int_vector(64, 9);
        let spec = LaunchSpec::scan(&x);
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        let done = rt.event();
        producer.launch(spec);
        producer.record_event(&done);
        consumer.wait_event(&done);
        rt.synchronize().unwrap();
        assert!(done.is_signaled());
        // The record carries the producer's virtual completion time.
        assert!(done.signal_time().unwrap() > 0);
        // Producer's buffer still holds the result.
        let out = producer.copy_out(off, len);
        rt.synchronize().unwrap();
        assert_eq!(out.wait().unwrap(), expected);
    }

    #[test]
    fn stream_errors_are_sticky_and_reported() {
        let rt = Runtime::new(RuntimeConfig::default());
        let s = rt.stream();
        let mut bad = LaunchSpec::sum(&int_vector(16, 1));
        bad.source = simt_kernels::KernelSource::Asm("  frob r1\n  exit".into());
        let h = s.launch(bad);
        let after = s.copy_out(0, 4);
        assert!(matches!(h.wait(), Err(RuntimeError::Asm(_))));
        assert!(after.wait().is_err(), "stream is poisoned after an error");
        assert!(rt.synchronize().is_err());
        // Other streams are unaffected.
        let ok = rt.stream();
        let spec = LaunchSpec::sum(&int_vector(32, 2));
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        ok.launch(spec);
        let out = ok.copy_out(off, len);
        ok.synchronize();
        assert_eq!(out.wait().unwrap(), expected);
    }

    #[test]
    fn copy_bounds_are_enforced() {
        let rt = Runtime::new(RuntimeConfig::default());
        let s = rt.stream();
        let words = rt.config().device.memory_words;
        let out = s.copy_out(words - 1, 2);
        assert!(matches!(
            out.wait(),
            Err(RuntimeError::CopyOutOfBounds { .. })
        ));
    }

    #[test]
    fn copy_offset_overflow_is_an_error_not_a_panic() {
        let rt = Runtime::new(RuntimeConfig::default());
        let s = rt.stream();
        s.copy_in(usize::MAX, &[1, 2]);
        assert!(matches!(
            rt.synchronize(),
            Err(RuntimeError::CopyOutOfBounds { .. })
        ));
        // The worker survived; a fresh stream still executes.
        let ok = rt.stream();
        let spec = LaunchSpec::sum(&int_vector(16, 3));
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        ok.launch(spec);
        let out = ok.copy_out(off, len);
        ok.synchronize();
        assert_eq!(out.wait().unwrap(), expected);
    }

    #[test]
    fn waiting_on_a_never_recorded_event_is_a_noop() {
        let rt = Runtime::new(RuntimeConfig::default());
        let s = rt.stream();
        let orphan = rt.event();
        s.wait_event(&orphan); // recorded nowhere: must not deadlock
        let spec = LaunchSpec::sum(&int_vector(32, 4));
        let h = s.launch(spec);
        rt.synchronize().unwrap();
        assert!(h.wait().is_ok());
        assert!(!orphan.is_signaled());
    }

    #[test]
    fn dropping_the_runtime_resolves_outstanding_handles() {
        let handles: Vec<LaunchHandle> = {
            let rt = Runtime::new(RuntimeConfig::default());
            let s = rt.stream();
            (0..50)
                .map(|i| s.launch(LaunchSpec::sum(&int_vector(256, i))))
                .collect()
            // rt dropped here with most launches still queued
        };
        for h in handles {
            // Every handle resolves — completed work with Ok, the
            // abandoned backlog with Shutdown — instead of hanging.
            match h.wait() {
                Ok(stats) => assert!(stats.cycles > 0),
                Err(e) => assert_eq!(e, RuntimeError::Shutdown),
            }
        }
    }

    #[test]
    fn stream_synchronize_is_a_fence() {
        let rt = Runtime::new(RuntimeConfig::default());
        let s = rt.stream();
        let spec = LaunchSpec::dot(&int_vector(256, 5), &int_vector(256, 6));
        let h = s.launch(spec);
        s.synchronize();
        assert!(h.try_stats().is_some(), "fence implies completion");
    }
}
