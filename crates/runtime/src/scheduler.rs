//! The multi-device scheduler.
//!
//! One worker thread per pool device (a plain `std::thread` spawn)
//! drains ready commands from any stream with work. A wake-up claims a
//! *batch*: consecutive ready commands of one stream, up to
//! `MAX_BATCH`, stopping after a launch so co-resident streams
//! interleave — that is what lets one stream's copies overlap another
//! stream's compute.
//!
//! Besides real host execution, the scheduler maintains a
//! discrete-event **virtual timeline** in device clocks: every device
//! has a compute engine and a copy engine (DMA), every stream chains its
//! commands, and events propagate timestamps across streams. Streams are
//! **not** device-affine: each command is *placed* at dispatch on the
//! least-loaded engine of the matching kind (ties to the lower device
//! id), so an imbalanced mix no longer strands a hot stream on a busy
//! device while others idle. Per-stream ordering is preserved by the
//! stream's own completion chain (`vdone`). The resulting makespan is
//! the modeled wall-clock of the whole job graph on the pool — the
//! metric the throughput bench and the overlap example report.
//!
//! What is deterministic: every command's modeled cycles, the order of
//! commands within a stream, and — with one worker draining a backlog
//! built under [`crate::Runtime::pause`] — the whole timeline. What is not:
//! commands are placed when their batch is published, so with more
//! than one worker the cross-stream makespan and the per-device splits
//! follow host completion order (`tables --check` holds those leaves
//! to a report-only band for that reason).
//!
//! The scheduler also hosts **stream capture**: a capturing stream's
//! commands are recorded into a `simt_graph` DAG (per-stream chain
//! edges, plus cross-stream edges through captured events) instead of
//! executing, and graph replay retires its nodes through the same
//! `Shared::retire` path stream commands take.
//!
//! ## Who owns which fact
//!
//! Per retired command the scheduler writes each fact exactly once:
//!
//! * **counts and sums** go into the books ([`DeviceStats`] /
//!   [`StreamStats`]) — plain integers under the lock it already holds;
//! * **where and when** is one [`Event::Placed`] in the pool's one
//!   [`EventRing`] (every other transition is one
//!   [`simt_profile::Event`] there too) — plain data behind the same
//!   lock, so ring order *is* lock order; the trace of a profiled pool
//!   and the black box of every pool are both snapshots of it, and so
//!   are per-stream order and cross-stream overlap;
//! * **distributions, watermarks and fault counters** — the latency
//!   histograms, the queue-depth and outstanding high watermarks, the
//!   fault-recovery counters — are books too, because nothing can
//!   rebuild them later (a bounded ring cannot rebuild a distribution):
//!   plain integers and `simt_metrics::Histogram`s in `MetricBooks`
//!   (`None` iff metrics are off) and `StreamState`, under the same
//!   lock.
//!
//! Everything else is computed when somebody asks: `stats()` clones the
//! books, and `metrics_snapshot()` writes the metric books out and
//! derives the launch, copy, instruction, thread-op and per-device
//! busy-cycle counters from the others under the same lock, beside the
//! makespan and the engine clocks — a counter kept twice is a counter
//! that can disagree with itself. A row exists exactly when its book
//! does: every stream's from `add_stream`, the pool-wide ones from pool
//! creation, a kernel's from its first retired launch, a fault
//! family's from its first injected fault.
//!
//! ## What the critical section may do
//!
//! The scheduler lock is the launch path's one contended resource, so
//! what runs under it obeys one rule: **no system call unless a thread
//! is known to be waiting, and no synchronisation of its own for data
//! the lock already orders.**
//!
//! * The event ring has no atomics and no locks: `SchedState` owns
//!   it, and `record` is a counter bump and a slot store. Producers
//!   that work outside the lock report *by value*: the compile cache
//!   returns what a lookup did, the thread that ran the launch hands it
//!   to `retire`, and `retire` writes `CacheLookup{Compile}`, the
//!   `PassRun`s (detailed rings only) and `CacheLookup{Decode}`
//!   directly before that launch's `Placed`. (A launch that fails
//!   records `Failed` and no lookup; the cache's counters still count
//!   it.) Readers take a snapshot under the lock — `Runtime::tracer`,
//!   `flight`, `postmortem` — and a `Health` finding, recorded from
//!   outside, takes the lock to do it: cold paths all.
//! * The metric books have no atomics and no locks either: a histogram
//!   `record` is a few integer stores, a counter a `+= 1`, a watermark
//!   a `max`. A retired launch finds its kernel's row by the name it
//!   brings along — moved out of the stream command's consumed spec,
//!   or borrowed from the replayed graph's — so a warm launch or replay
//!   allocates nothing for them.
//! * A completion cell (`stream::Slot`, behind every launch
//!   handle, copy handle and event) counts its waiters and wakes only
//!   when there are some; worker wakes name a parked worker; `idle` is
//!   signalled on the one transition its waiters test.
//! * A graph replay executes outside the lock and books itself — every
//!   node's `retire`, then `GraphReplayDone` — in one acquisition.
//!
//! ## Wake protocol
//!
//! All scheduler state sits behind one mutex. Each worker sleeps on a
//! condvar of its own, `synchronize` on `idle`. A wake is a futex call
//! whether or not anyone is listening, and a shared condvar may hand
//! one `notify_one` to two threads (one asleep, one on its way to
//! sleep), so every wake names the worker it is for and is sent only
//! where it can be used.
//!
//! `parked` lists the workers asleep with no wake on its way to them.
//!
//! **Invariant.** While the pool is not paused, *claimable work and a
//! worker in `parked` imply a wake in flight, or an awake worker that
//! will scan before it parks.* A stream is claimable when it is not
//! busy and its head command can execute or resolve inline.
//!
//! Workers keep it from their side: a worker parks only under the lock,
//! directly after a scan that found nothing, and enters `parked` as it
//! does; a worker that finishes a batch publishes it and scans for the
//! next in the *same* critical section. So whatever a publish makes
//! claimable (the freed stream's backlog, an event a poisoned drain
//! signalled) is seen by the publisher itself.
//!
//! Every other transition to "claimable" happens under the lock and
//! takes one worker off `parked` to wake:
//!
//! * `enqueue` onto an idle stream's *empty* queue. A busy stream is
//!   rescanned by the worker running its batch; behind an older command
//!   the head, hence claimability, is unchanged.
//! * a claim that leaves another stream claimable (the scan stops at the
//!   first batch, and inline event resolution may have released a
//!   waiter): the claimer is about to go busy, so it passes the wake on.
//! * `enqueue` of an event record onto a poisoned stream, which signals
//!   the event on the spot.
//! * `resume` and shutdown wake everyone.
//!
//! **Notify after unlock.** The sleeper is chosen, and leaves `parked`,
//! under the lock; its condvar is notified after the unlock, so it does
//! not wake straight into a held mutex. Nothing is lost in the gap: a
//! worker listed in `parked` entered its wait under the lock
//! (`Condvar::wait` releases the mutex and enqueues atomically), so the
//! notify finds it there — or it has returned spuriously, and then it
//! scans under the lock, after the change. Because a chosen sleeper is
//! off the list, two changes in a row wake two workers, never one
//! twice. A wake that arrives to nothing left (an awake worker got
//! there first) is counted in [`DeviceStats::idle_wakeups`].
//!
//! `idle` is signalled in one place (`Shared::complete`), on the
//! transition of `outstanding` to zero — the only thing its waiters
//! test.

use crate::chaos::{DeviceHealth, FaultKind, FaultPlan, PlannedFault};
use crate::pool::{Device, DeviceBuffer, LaunchOutcome, RuntimeConfig};
use crate::stats::{CommandKind, DeviceStats, RuntimeStats, StreamStats};
use crate::stream::Command;
use crate::RuntimeError;
use simt_compiler::Lookup;
use simt_core::ExecStats;
use simt_graph::{ExecGraph, GraphNode, GraphOp, NodeId};
use simt_metrics::{names as metric, Histogram, MetricsSnapshot};
use simt_profile::{labels, CacheTier, Event, EventRing};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One queued command with its recovery bookkeeping: the attempt
/// number (bumped on every injected-fault retry), the device the
/// previous faulted attempt was blamed on (retries are placed
/// elsewhere when the pool has an alternative), and whether the
/// command already survived a fault (its eventual success counts as a
/// recovery).
pub(crate) struct Pending {
    seq: u64,
    attempt: u32,
    avoid: Option<usize>,
    faulted: bool,
    cmd: Command,
}

/// A claimed batch: the owning stream, plus each command paired with
/// the fault (if any) the chaos plan drew for this attempt at claim
/// time — drawn under the scheduler lock so fault decisions are
/// independent of worker-thread interleaving.
type ClaimedBatch = (usize, Vec<(Pending, Option<PlannedFault>)>);

impl Pending {
    fn first(seq: u64, cmd: Command) -> Self {
        Pending {
            seq,
            attempt: 0,
            avoid: None,
            faulted: false,
            cmd,
        }
    }
}

/// Scheduler-side state of one stream.
pub(crate) struct StreamState {
    queue: VecDeque<Pending>,
    next_seq: u64,
    /// The stream's device buffer; taken by a worker while a batch runs.
    buffer: Option<DeviceBuffer>,
    busy: bool,
    poisoned: Option<RuntimeError>,
    /// Virtual time at which the stream's last completed command ended.
    vdone: u64,
    /// The deepest the queue has been.
    depth_watermark: u64,
    /// Modeled cycles per launch and per copy retired on this stream
    /// (recorded iff metrics are on).
    launch_cycles: Histogram,
    copy_cycles: Histogram,
}

/// The facts only the metrics keep — see "Who owns which fact" in the
/// module doc. Plain data in [`SchedState`], `None` iff metrics are
/// off; the per-stream distributions live in [`StreamState`].
#[derive(Default)]
struct MetricBooks {
    /// Modeled cycles per launch, by `LaunchSpec::name`: a row from the
    /// kernel's first retired launch. Boxed, so the table's spare
    /// capacity costs a pointer per slot, not a histogram.
    launch_cycles: HashMap<String, Box<Histogram>>,
    graph_span: Histogram,
    /// Modeled backoff cycles charged per retry.
    retry_backoff: Histogram,
    /// The most commands ever queued or in flight at once.
    outstanding_watermark: u64,
    /// Fault-recovery counters (all zero on fault-free pools).
    retries: u64,
    failovers: u64,
    recovered: u64,
    terminal_failures: u64,
    timeouts: u64,
    quarantines: u64,
    /// Injected faults by family: a row from the family's first fault.
    faults_injected: BTreeMap<&'static str, u64>,
}

/// An in-progress stream capture: commands of participating streams are
/// recorded as graph nodes instead of executing. The first stream to
/// call `begin_capture` is the *origin* and must be the one to call
/// `end_capture`; other streams join with their own `begin_capture` and
/// contribute nodes ordered by captured events.
pub(crate) struct CaptureSession {
    /// Session generation (distinguishes events of older captures).
    generation: u64,
    /// Stream that started (and must end) the capture.
    origin: usize,
    /// Streams recording into this session.
    participants: HashSet<usize>,
    /// Captured nodes so far.
    nodes: Vec<GraphNode>,
    /// Last captured node per stream (the per-stream chain edge).
    tails: HashMap<usize, usize>,
    /// Extra dependencies (from captured event waits) to attach to a
    /// stream's next node.
    pending: HashMap<usize, Vec<usize>>,
}

/// Maximum commands one scheduler wake-up claims for a device.
const MAX_BATCH: usize = 8;

/// Everything behind the scheduler mutex.
pub(crate) struct SchedState {
    streams: Vec<StreamState>,
    stream_stats: Vec<StreamStats>,
    device_stats: Vec<DeviceStats>,
    /// Queued plus in-flight commands.
    outstanding: usize,
    first_error: Option<RuntimeError>,
    /// Per-device compute-engine clock (virtual cycles).
    vcompute: Vec<u64>,
    /// Per-device copy-engine clock (virtual cycles).
    vcopy: Vec<u64>,
    /// Per-device rotating scan offset (batch-level round-robin).
    scan_from: Vec<usize>,
    /// Active stream-capture session, if any.
    capture: Option<CaptureSession>,
    /// Capture generation counter.
    capture_generation: u64,
    /// Workers hold off claiming while set (deterministic-schedule
    /// testing: build a full backlog, then release it at once).
    paused: bool,
    /// Workers asleep on their condvar with no wake on its way to
    /// them, most recently parked last. See "Wake protocol" in the
    /// module doc.
    parked: Vec<usize>,
    /// Per-device health, driven by the fault tracker below against
    /// the recovery config's fault budget. Quarantined devices are
    /// excluded from stream placement and graph replay.
    device_health: Vec<DeviceHealth>,
    /// Faults blamed on each device since its last reset.
    device_faults: Vec<u64>,
    /// Set by `reset_device` on the sticky-fault target: readmission
    /// models a replaced part, so the sticky fault retires with it.
    sticky_disabled: bool,
    /// Devices quarantined since the last postmortem collection
    /// (`Runtime` assembles a `postmortem("device-quarantined")`
    /// bundle for each at the next synchronization point).
    pending_quarantines: Vec<usize>,
    /// The pool's event ring: the newest
    /// `max(flight_capacity, profile.events)` transitions, detailed iff
    /// profiling is on. `None` iff both the black box
    /// ([`RuntimeConfig::flight_capacity`] zero) and the profiler are
    /// off. Plain data: this lock orders its writers.
    events: Option<EventRing>,
    /// `None` iff [`RuntimeConfig::metrics`] was switched off to
    /// measure the disabled path.
    metrics: Option<MetricBooks>,
}

impl SchedState {
    /// Record one transition (one branch on `None` when the pool has
    /// no ring; eager `event` construction stays cheap — ids, cycles
    /// and already-computed gauge values).
    fn record(&mut self, event: Event) {
        if let Some(ring) = &mut self.events {
            ring.record(event);
        }
    }

    /// The modeled makespan: the latest point any stream's completion
    /// chain or any engine clock has reached.
    fn makespan(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.vdone)
            .chain(self.vcompute.iter().copied())
            .chain(self.vcopy.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// The worker to wake for work that just became claimable: the
    /// most recently parked one, taken off the list — or `None` when
    /// nobody sleeps, claiming is held off (`resume` wakes everyone),
    /// or `work` (asked only then) says there is nothing to claim.
    fn sleeper_if(&mut self, work: impl FnOnce(&SchedState) -> bool) -> Option<usize> {
        if self.paused || self.parked.is_empty() || !work(self) {
            return None;
        }
        self.parked.pop()
    }

    fn any_claimable(&self) -> bool {
        (0..self.streams.len()).any(|sid| self.claimable(sid))
    }

    /// Can a worker claim something from `sid` right now: the stream is
    /// idle and its head command is executable, or an event command
    /// that resolves inline?
    fn claimable(&self, sid: usize) -> bool {
        let st = &self.streams[sid];
        !st.busy
            && match st.queue.front().map(|p| &p.cmd) {
                None => false,
                Some(Command::WaitEvent(e)) => e.is_signaled() || !e.is_recorded(),
                Some(_) => true,
            }
    }
}

/// Shared scheduler handle.
pub(crate) struct Shared {
    pub(crate) cfg: RuntimeConfig,
    state: Mutex<SchedState>,
    /// Worker `d` waits on `work[d]` for runnable commands.
    work: Vec<Condvar>,
    /// `synchronize` waits here for quiescence.
    idle: Condvar,
    pub(crate) shutdown: AtomicBool,
    /// Compiled fault-injection oracle (`Some` iff the pool was
    /// configured with [`RuntimeConfig::with_chaos`]).
    plan: Option<FaultPlan>,
    started: Instant,
}

/// Where a retired command came from, which decides where it may go
/// and whose books it lands in besides the placement device's.
pub(crate) enum Origin {
    /// A stream command: ready at the stream's completion front.
    Stream {
        sid: usize,
        /// This success is a recovery from an earlier fault.
        faulted: bool,
        /// Device the faulted attempt was blamed on (failover target
        /// exclusion at placement).
        avoid: Option<usize>,
    },
    /// A graph-replay node: ready when its dependencies end.
    Graph { ready: u64 },
}

/// What a launch adds to a [`Retired`] command.
pub(crate) struct Launched<'a> {
    pub(crate) outcome: LaunchOutcome,
    /// `LaunchSpec::name`: moved out of a stream command's spec, which
    /// the launch consumed, or borrowed from a replayed graph's.
    pub(crate) name: Cow<'a, str>,
}

/// One executed copy or launch on its way to the virtual timeline:
/// everything [`Shared::retire`] places, accounts and records.
pub(crate) struct Retired<'a> {
    pub(crate) origin: Origin,
    /// Sequence number within the stream, or node index within the
    /// graph.
    pub(crate) seq: u64,
    pub(crate) kind: CommandKind,
    /// Modeled engine cycles.
    pub(crate) cycles: u64,
    /// Words moved (copies).
    pub(crate) words: u64,
    /// Host time spent executing.
    pub(crate) wall: Duration,
    /// `Some` iff the command is a launch.
    pub(crate) launch: Option<Launched<'a>>,
}

/// The handle a retired stream command resolves.
enum Sink {
    /// Copy-ins have none.
    None,
    /// `CopyOut` cell plus the words to deliver into it.
    CopyOut(
        Arc<crate::stream::Slot<Result<Vec<u32>, RuntimeError>>>,
        Vec<u32>,
    ),
    Launch(Arc<crate::stream::Slot<Result<ExecStats, RuntimeError>>>),
}

/// One executed command, ready to publish.
enum Done {
    Retired(Retired<'static>, Sink),
    Failed {
        error: RuntimeError,
        cmd: Command,
    },
    /// A recoverable fault: injected by the chaos plan, or a real
    /// watchdog timeout. `publish` decides retry (requeue with
    /// backoff) vs terminal failure (attempts exhausted → stream
    /// poison), updates the blamed device's fault tracker, and charges
    /// `cycles` (the watchdog budget for hangs, zero otherwise) to its
    /// compute engine.
    Fault {
        /// The faulted command, ready to requeue (attempt not yet
        /// bumped; `faulted` already set).
        pending: Pending,
        kind: FaultKind,
        /// False for a real watchdog timeout, true for chaos faults.
        injected: bool,
        /// Blamed device (plan-derived pseudo-dispatch target for
        /// injected faults; the executing device for real timeouts).
        device: usize,
        error: RuntimeError,
        /// Modeled cycles the fault occupied the blamed device.
        cycles: u64,
    },
}

/// An executed batch on its way back to [`Shared::publish`].
struct Finished {
    sid: usize,
    done: Vec<Done>,
    /// The unexecuted tail of a batch cut short by a fault.
    requeue: Vec<Pending>,
    /// The stream's device buffer, returned with the batch.
    buffer: DeviceBuffer,
}

impl Shared {
    pub(crate) fn new(cfg: RuntimeConfig) -> Self {
        let d = cfg.devices;
        let trace = cfg.profile.as_ref().map_or(0, |p| p.events);
        let capacity = cfg.flight_capacity.max(trace);
        let events = (capacity > 0).then(|| EventRing::new(capacity, cfg.profile.is_some()));
        let metrics = cfg.metrics.then(MetricBooks::default);
        let plan = cfg.chaos.as_ref().map(FaultPlan::new);
        Shared {
            cfg,
            state: Mutex::new(SchedState {
                streams: Vec::new(),
                stream_stats: Vec::new(),
                device_stats: vec![DeviceStats::default(); d],
                outstanding: 0,
                first_error: None,
                vcompute: vec![0; d],
                vcopy: vec![0; d],
                scan_from: vec![0; d],
                capture: None,
                capture_generation: 0,
                paused: false,
                parked: Vec::new(),
                device_health: vec![DeviceHealth::Healthy; d],
                device_faults: vec![0; d],
                sticky_disabled: false,
                pending_quarantines: Vec::new(),
                events,
                metrics,
            }),
            work: (0..d).map(|_| Condvar::new()).collect(),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
            plan,
            started: Instant::now(),
        }
    }

    /// Record one transition from outside the scheduler (a health
    /// finding): takes the lock, as every reader and writer of the
    /// ring does.
    pub(crate) fn record(&self, event: Event) {
        self.state.lock().unwrap().record(event);
    }

    /// Record what `instantiate`'s compile-cache lookups did, in order,
    /// in one acquisition.
    pub(crate) fn record_lookups(&self, lookups: &[Lookup]) {
        if let Some(ring) = &mut self.state.lock().unwrap().events {
            lookups.iter().for_each(|l| record_lookup(ring, l));
        }
    }

    /// Read the event ring (`None` iff the pool has none) under the
    /// scheduler lock: what `view` copies out is a consistent snapshot,
    /// and the pool waits while it does.
    pub(crate) fn with_events<R>(&self, view: impl FnOnce(Option<&EventRing>) -> R) -> R {
        view(self.state.lock().unwrap().events.as_ref())
    }

    /// Wake every sleeping worker so it observes the shutdown flag.
    /// Taking the lock first orders this after any worker that read the
    /// flag clear and is about to park. (`synchronize` waiters are woken
    /// by whoever retires the last outstanding command —
    /// [`Shared::complete`].)
    pub(crate) fn wake_all(&self) {
        let _guard = self.state.lock().unwrap();
        for worker in &self.work {
            worker.notify_one();
        }
    }

    /// Deliver the wake a critical section decided on
    /// ([`SchedState::sleeper_if`]); call after dropping the guard.
    fn wake(&self, sleeper: Option<usize>) {
        if let Some(w) = sleeper {
            self.work[w].notify_one();
        }
    }

    /// `n` commands stopped being outstanding. The one place
    /// `synchronize` waiters are signalled: on the transition to zero.
    fn complete(&self, state: &mut SchedState, n: usize) {
        state.outstanding -= n;
        if n > 0 && state.outstanding == 0 {
            self.idle.notify_all();
        }
    }

    /// Register a stream (not device-affine: every command is placed at
    /// dispatch).
    pub(crate) fn add_stream(&self) -> usize {
        let mut state = self.state.lock().unwrap();
        let id = state.streams.len();
        state.streams.push(StreamState {
            queue: VecDeque::new(),
            next_seq: 0,
            buffer: Some(DeviceBuffer::zeroed(self.cfg.device.memory_words)),
            busy: false,
            poisoned: None,
            vdone: 0,
            depth_watermark: 0,
            launch_cycles: Histogram::new(),
            copy_cycles: Histogram::new(),
        });
        state.stream_stats.push(StreamStats::default());
        id
    }

    /// Hold every worker off claiming new batches (in-flight batches
    /// finish). With the pool paused, enqueues build a backlog whose
    /// drain order on resume is deterministic for a single worker —
    /// the substrate for schedule-sensitive tests and watermark
    /// assertions.
    pub(crate) fn pause(&self) {
        let mut state = self.state.lock().unwrap();
        state.paused = true;
        state.record(Event::Pause);
    }

    /// Release paused workers.
    pub(crate) fn resume(&self) {
        let mut state = self.state.lock().unwrap();
        state.paused = false;
        state.record(Event::Resume);
        let sleepers = std::mem::take(&mut state.parked);
        drop(state);
        for w in sleepers {
            self.work[w].notify_one();
        }
    }

    /// Begin capturing `stream`: its commands record into the active
    /// capture session (created if none) instead of executing.
    pub(crate) fn begin_capture(&self, stream: usize) -> Result<(), RuntimeError> {
        let mut state = self.state.lock().unwrap();
        match state.capture.as_mut() {
            Some(session) => {
                if !session.participants.insert(stream) {
                    return Err(RuntimeError::Capture(format!(
                        "stream {stream} is already capturing"
                    )));
                }
                Ok(())
            }
            None => {
                state.capture_generation += 1;
                let generation = state.capture_generation;
                state.capture = Some(CaptureSession {
                    generation,
                    origin: stream,
                    participants: HashSet::from([stream]),
                    nodes: Vec::new(),
                    tails: HashMap::new(),
                    pending: HashMap::new(),
                });
                Ok(())
            }
        }
    }

    /// Is `stream` currently recording into a capture session?
    pub(crate) fn is_capturing(&self, stream: usize) -> bool {
        self.state
            .lock()
            .unwrap()
            .capture
            .as_ref()
            .is_some_and(|session| session.participants.contains(&stream))
    }

    /// Finish the capture session. Must be called on the origin stream;
    /// every participant stops capturing.
    pub(crate) fn end_capture(&self, stream: usize) -> Result<ExecGraph, RuntimeError> {
        let mut state = self.state.lock().unwrap();
        match &state.capture {
            None => Err(RuntimeError::Capture(
                "no stream capture is in progress".into(),
            )),
            Some(session) if session.origin != stream => Err(RuntimeError::Capture(format!(
                "end_capture on stream {stream}, but the capture began on stream {}",
                session.origin
            ))),
            Some(_) => {
                let session = state.capture.take().expect("checked above");
                ExecGraph::from_nodes(session.nodes)
                    .map_err(|e| RuntimeError::Capture(e.to_string()))
            }
        }
    }

    /// Record one command into the capture session (the stream is a
    /// participant). Launch and copy-out handles resolve immediately
    /// with [`RuntimeError::Captured`] — a captured command has no
    /// execution result.
    fn capture_command(session: &mut CaptureSession, stream: usize, cmd: Command) {
        let op = match cmd {
            Command::RecordEvent(event) => {
                event.set_capture_tag(session.generation, session.tails.get(&stream).copied());
                return;
            }
            Command::WaitEvent(event) => {
                if let Some((generation, node)) = event.capture_tag() {
                    if generation == session.generation {
                        if let Some(node) = node {
                            session.pending.entry(stream).or_default().push(node);
                        }
                    }
                }
                return;
            }
            Command::CopyIn { dst, data } => GraphOp::CopyIn { dst, data },
            Command::CopyOut { src, len, sink } => {
                sink.set(Err(RuntimeError::Captured));
                GraphOp::CopyOut { src, len }
            }
            Command::Launch { spec, sink } => {
                sink.set(Err(RuntimeError::Captured));
                GraphOp::Launch(spec)
            }
        };
        let mut deps: Vec<NodeId> = Vec::new();
        if let Some(&tail) = session.tails.get(&stream) {
            deps.push(NodeId::from_index(tail));
        }
        for dep in session.pending.remove(&stream).unwrap_or_default() {
            let dep = NodeId::from_index(dep);
            if !deps.contains(&dep) {
                deps.push(dep);
            }
        }
        let id = session.nodes.len();
        session.nodes.push(GraphNode { op, deps });
        session.tails.insert(stream, id);
    }

    /// The error a poisoned stream reports for commands *after* the one
    /// that actually failed: the sticky [`RuntimeError::StreamPoisoned`]
    /// marker (the CUDA model — only the failing command carries the
    /// root cause), except shutdown, which stays [`RuntimeError::Shutdown`]
    /// so late-held handles remain attributable.
    fn sticky_error(st: &StreamState, stream: usize) -> RuntimeError {
        match st.poisoned.as_ref() {
            Some(RuntimeError::Shutdown) => RuntimeError::Shutdown,
            _ => RuntimeError::StreamPoisoned { stream },
        }
    }

    /// Enqueue a command onto a stream.
    pub(crate) fn enqueue(&self, stream: usize, cmd: Command) {
        let mut state = self.state.lock().unwrap();
        if let Some(session) = state.capture.as_mut() {
            if session.participants.contains(&stream) {
                Self::capture_command(session, stream, cmd);
                return;
            }
        }
        // Events become waitable the moment their record is enqueued —
        // under the scheduler lock, so cross-stream enqueue races see a
        // consistent order. (Captured records above deliberately do
        // not: they order graph nodes, not live streams.)
        if let Command::RecordEvent(event) = &cmd {
            event.mark_recorded();
        }
        let st = &mut state.streams[stream];
        let seq = st.next_seq;
        st.next_seq += 1;
        // A stream opened after shutdown has no sticky error yet, but
        // the workers are gone — poison it here so its commands fail
        // fast instead of queueing forever.
        if st.poisoned.is_none() && self.shutdown.load(std::sync::atomic::Ordering::Relaxed) {
            st.poisoned = Some(RuntimeError::Shutdown);
        }
        if st.poisoned.is_some() {
            // Poisoned streams fail everything immediately (the CUDA
            // sticky-error model), still in order. Only the command
            // that failed carries the original error; everything after
            // it sees the sticky marker until `Stream::reset`.
            let sticky = Self::sticky_error(st, stream);
            let signals = matches!(cmd, Command::RecordEvent(_));
            // Outstanding for the length of the call, so `fail` is the
            // one path every failed command takes.
            state.outstanding += 1;
            self.fail(&mut state, stream, cmd, &sticky, false);
            // A record failed here still signals its event, which may
            // be what another stream's head was waiting on.
            let sleeper = if signals {
                state.sleeper_if(SchedState::any_claimable)
            } else {
                None
            };
            drop(state);
            self.wake(sleeper);
            return;
        }
        let kind = cmd.kind();
        st.queue.push_back(Pending::first(seq, cmd));
        let (depth, at) = (st.queue.len() as u64, st.vdone);
        st.depth_watermark = st.depth_watermark.max(depth);
        state.outstanding += 1;
        let outstanding = state.outstanding as u64;
        if let Some(m) = &mut state.metrics {
            m.outstanding_watermark = m.outstanding_watermark.max(outstanding);
        }
        state.record(Event::Enqueue {
            stream,
            kind,
            depth,
            outstanding,
            at,
        });
        // Wake a worker only for a command that made its stream
        // claimable: a busy stream is rescanned by the worker running
        // its batch when it publishes, and behind an older command the
        // stream's claimability has not changed.
        let sleeper = state.sleeper_if(|s| {
            let st = &s.streams[stream];
            !st.busy && st.queue.len() == 1
        });
        drop(state);
        self.wake(sleeper);
    }

    /// Block until no command is queued or in flight; surfaces the first
    /// error the runtime hit (sticky).
    pub(crate) fn synchronize(&self) -> Result<(), RuntimeError> {
        let mut state = self.state.lock().unwrap();
        while state.outstanding > 0 {
            state = self.idle.wait(state).unwrap();
        }
        match &state.first_error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Snapshot the accounting.
    pub(crate) fn stats(&self) -> RuntimeStats {
        let state = self.state.lock().unwrap();
        RuntimeStats {
            streams: state.stream_stats.clone(),
            devices: state.device_stats.clone(),
            compile_evictions: 0, // filled by Runtime::stats
            wall: self.started.elapsed(),
            makespan_cycles: state.makespan(),
            fmax_mhz: self.cfg.device.fmax_mhz,
        }
    }

    /// Snapshot the pool metrics (`None` iff metrics are off): write out
    /// the metric books under the scheduler lock, beside what is derived
    /// from the scheduler's other state — the work counters off the
    /// books, the virtual timeline (makespan, per-engine clocks,
    /// per-stream frontiers), device health — and the trace's drop
    /// counter. Sorted, so byte-deterministic given the recorded
    /// samples.
    pub(crate) fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let state = self.state.lock().unwrap();
        let m = state.metrics.as_ref()?;
        let mut snap = MetricsSnapshot::new();
        let outstanding = state.outstanding as u64;
        let watermark = m.outstanding_watermark.max(outstanding);
        snap.push_watermark_gauge(metric::OUTSTANDING, "", outstanding, watermark);
        for (name, value) in [
            (metric::RETRIES, m.retries),
            (metric::FAILOVERS, m.failovers),
            (metric::RECOVERED, m.recovered),
            (metric::TERMINAL_FAILURES, m.terminal_failures),
            (metric::TIMEOUTS, m.timeouts),
            (metric::QUARANTINES, m.quarantines),
        ] {
            snap.push_counter(name, "", value);
        }
        for (family, &n) in &m.faults_injected {
            snap.push_counter(metric::FAULTS_INJECTED, family, n);
        }
        snap.histograms.extend([
            m.graph_span.snapshot(metric::GRAPH_SPAN_CYCLES, ""),
            m.retry_backoff.snapshot(metric::RETRY_BACKOFF_CYCLES, ""),
        ]);
        let kernels = m.launch_cycles.iter();
        snap.histograms
            .extend(kernels.map(|(kernel, h)| h.snapshot(metric::LAUNCH_CYCLES, kernel)));
        for (sid, st) in state.streams.iter().enumerate() {
            let label = labels::stream(sid);
            snap.histograms.extend([
                st.launch_cycles
                    .snapshot(metric::STREAM_LAUNCH_CYCLES, &label),
                st.copy_cycles.snapshot(metric::STREAM_COPY_CYCLES, &label),
            ]);
            let depth = st.queue.len() as u64;
            let watermark = st.depth_watermark.max(depth);
            snap.push_watermark_gauge(metric::QUEUE_DEPTH, &label, depth, watermark);
            snap.push_gauge(metric::STREAM_VDONE_CYCLES, &label, st.vdone as f64);
        }
        let books = &state.device_stats;
        let total = |f: fn(&DeviceStats) -> u64| books.iter().map(f).sum();
        snap.push_counter(metric::LAUNCHES, "", total(|d| d.launches));
        snap.push_counter(metric::COPIES, "", total(|d| d.copies));
        snap.push_counter(metric::DYN_INSTRS, "", total(|d| d.compute.instructions));
        snap.push_counter(metric::THREAD_OPS, "", total(|d| d.compute.thread_ops));
        for (d, ds) in books.iter().enumerate() {
            snap.push_counter(
                metric::DEVICE_BUSY_CYCLES,
                &labels::device(d),
                ds.busy_cycles,
            );
        }
        snap.push_gauge(metric::MAKESPAN_CYCLES, "", state.makespan() as f64);
        for (d, &v) in state.vcompute.iter().enumerate() {
            snap.push_gauge(metric::DEVICE_COMPUTE_CYCLES, &labels::device(d), v as f64);
        }
        for (d, &v) in state.vcopy.iter().enumerate() {
            snap.push_gauge(metric::DEVICE_COPY_CYCLES, &labels::device(d), v as f64);
        }
        for (d, h) in state.device_health.iter().enumerate() {
            snap.push_gauge(
                metric::DEVICE_HEALTH,
                &labels::device(d),
                h.severity() as f64,
            );
        }
        for (d, &f) in state.device_faults.iter().enumerate() {
            snap.push_counter(metric::DEVICE_FAULTS, &labels::device(d), f);
        }
        // Only a trace can be partial: the black box laps by design.
        let trace = state.events.as_ref().filter(|ring| ring.detailed());
        snap.push_counter(
            metric::TRACER_DROPPED,
            "",
            trace.map_or(0, |ring| ring.dropped()),
        );
        snap.sort();
        Some(snap)
    }

    /// Fail every still-queued command after shutdown, so handles held
    /// past the runtime's lifetime resolve instead of hanging.
    pub(crate) fn drain_after_shutdown(&self) {
        let mut state = self.state.lock().unwrap();
        for sid in 0..state.streams.len() {
            if state.streams[sid].poisoned.is_none() {
                state.streams[sid].poisoned = Some(RuntimeError::Shutdown);
            }
            while let Some(p) = state.streams[sid].queue.pop_front() {
                self.fail(&mut state, sid, p.cmd, &RuntimeError::Shutdown, false);
            }
        }
    }

    /// Clear a stream's sticky error so it accepts new work again
    /// (CUDA's destroy-and-recreate recovery, folded into a reset).
    pub(crate) fn reset_stream(&self, stream: usize) {
        let mut state = self.state.lock().unwrap();
        state.streams[stream].poisoned = None;
    }

    /// Readmit a device: back to `Healthy`, fault counter cleared.
    /// When the device is the chaos plan's sticky-failure target, the
    /// sticky fault retires with the reset — the model is a replaced
    /// part, not a rebooted broken one, so the readmitted device
    /// genuinely recovers.
    pub(crate) fn reset_device(&self, device: usize) {
        let mut state = self.state.lock().unwrap();
        state.device_health[device] = DeviceHealth::Healthy;
        state.device_faults[device] = 0;
        if self
            .plan
            .as_ref()
            .and_then(|p| p.sticky())
            .is_some_and(|s| s.device == device)
        {
            state.sticky_disabled = true;
        }
        state.record(Event::DeviceReset { device });
    }

    /// Current per-device health states.
    pub(crate) fn device_health(&self) -> Vec<DeviceHealth> {
        self.state.lock().unwrap().device_health.clone()
    }

    /// Devices quarantined since the last call (the postmortem queue:
    /// `Runtime` drains this at synchronization points and assembles a
    /// bundle per device).
    pub(crate) fn take_pending_quarantines(&self) -> Vec<usize> {
        std::mem::take(&mut self.state.lock().unwrap().pending_quarantines)
    }

    /// Take the scheduler lock to book one graph replay: each executed
    /// node's [`Shared::retire`], then [`Shared::replay_done`], in one
    /// acquisition.
    pub(crate) fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap()
    }

    /// A graph replay ran to its end: record its modeled critical-path
    /// span.
    pub(crate) fn replay_done(&self, state: &mut SchedState, nodes: usize, span_cycles: u64) {
        if let Some(m) = &mut state.metrics {
            m.graph_span.record(span_cycles);
        }
        state.record(Event::GraphReplayDone { nodes, span_cycles });
    }

    /// The one way an executed copy or launch reaches the books:
    /// *place* it on the least-loaded engine of the matching kind
    /// (breaking stream-device affinity), advance the timeline, merge
    /// it into the placement device's accounting — and, for a stream
    /// command, the stream's and the outstanding count — record its
    /// latency samples and one [`Event::Placed`] (see "Who owns which
    /// fact" in the module doc), a launch's directly behind what its
    /// compile-cache lookup did. Returns `(device, start, end)` in
    /// virtual cycles; the caller resolves the command's handle
    /// afterwards, so a waiter that wakes on it finds all of this
    /// already written.
    pub(crate) fn retire(&self, state: &mut SchedState, r: &Retired) -> (usize, u64, u64) {
        let Retired {
            seq, kind, cycles, ..
        } = *r;
        let launch = r.launch.as_ref();
        let (ready, avoid) = match r.origin {
            Origin::Stream { sid, avoid, .. } => (state.streams[sid].vdone, avoid),
            Origin::Graph { ready } => (ready, None),
        };
        let engines = match launch {
            Some(_) => &mut state.vcompute,
            None => &mut state.vcopy,
        };
        let (p, start) = place(engines, ready, cycles, &state.device_health, avoid);
        let end = start + cycles;
        let ds = &mut state.device_stats[p];
        ds.placements += 1;
        ds.busy_cycles += cycles;
        ds.busy_wall += r.wall;
        match launch {
            Some(l) => {
                ds.launches += 1;
                if l.outcome.cache_hit {
                    ds.cache_hits += 1;
                } else {
                    ds.cache_misses += 1;
                }
                if l.outcome.lookup.hit {
                    ds.compile_hits += 1;
                } else {
                    ds.compile_misses += 1;
                }
                ds.compute.merge(&l.outcome.stats);
            }
            None => ds.copies += 1,
        }
        if let Origin::Stream { sid, .. } = r.origin {
            ds.batched_commands += 1;
            state.streams[sid].vdone = end;
            let ss = &mut state.stream_stats[sid];
            ss.commands += 1;
            ss.busy_wall += r.wall;
            match launch {
                Some(l) => {
                    ss.launches += 1;
                    ss.compute.merge(&l.outcome.stats);
                }
                None => {
                    ss.copies += 1;
                    ss.copy_words += r.words;
                    ss.copy_cycles += cycles;
                }
            }
        }
        if let Some(m) = &mut state.metrics {
            if let Some(l) = launch {
                match m.launch_cycles.get_mut(&*l.name) {
                    Some(h) => h.record(cycles),
                    None => m
                        .launch_cycles
                        .entry(l.name.to_string())
                        .or_default()
                        .record(cycles),
                }
            }
            if let Origin::Stream { sid, faulted, .. } = r.origin {
                m.recovered += u64::from(faulted);
                let st = &mut state.streams[sid];
                match launch {
                    Some(_) => st.launch_cycles.record(cycles),
                    None => st.copy_cycles.record(cycles),
                }
            }
        }
        let stream = match r.origin {
            Origin::Stream { sid, .. } => Some(sid),
            Origin::Graph { .. } => None,
        };
        if let Some(ring) = &mut state.events {
            if let Some(l) = launch {
                record_lookup(ring, &l.outcome.lookup);
            }
            ring.record(Event::Placed {
                stream,
                seq,
                kind,
                device: p,
                start,
                end,
                words: r.words,
                instructions: launch.map_or(0, |l| l.outcome.stats.instructions),
                kernel: launch
                    .filter(|_| ring.detailed())
                    .map(|l| Arc::from(&*l.name)),
            });
        }
        if stream.is_some() {
            self.complete(state, 1);
        }
        (p, start, end)
    }

    /// The one way a command that will never run leaves the books:
    /// resolve its handle with `error` at the stream's completion
    /// front, count it and stop it being outstanding. `root` marks the
    /// command that actually failed, as opposed to the backlog behind
    /// it: it is recorded in the ring *before* its handle resolves — a
    /// waiter that wakes on the error and immediately dumps the ring
    /// must see it — poisons the stream, and becomes the pool's first
    /// error if there is none yet.
    fn fail(
        &self,
        state: &mut SchedState,
        sid: usize,
        cmd: Command,
        error: &RuntimeError,
        root: bool,
    ) {
        if root {
            if let Some(ring) = &mut state.events {
                ring.record(Event::Failed {
                    stream: sid,
                    kind: cmd.kind(),
                    error: error.to_string(),
                });
            }
            state.streams[sid]
                .poisoned
                .get_or_insert_with(|| error.clone());
            state.first_error.get_or_insert_with(|| error.clone());
        }
        let vdone = state.streams[sid].vdone;
        cmd.resolve_err(error, vdone);
        state.stream_stats[sid].commands += 1;
        self.complete(state, 1);
    }

    /// Resolve any event commands at the head of idle streams and pop a
    /// batch of executable commands if one is ready (any worker may
    /// claim any stream's batch — placement happens at publish).
    /// Runs under the scheduler lock.
    fn claim(&self, state: &mut SchedState, d: usize) -> Option<ClaimedBatch> {
        let n = state.streams.len();
        loop {
            let mut progress = false;
            let start = state.scan_from[d] % n.max(1);
            for k in 0..n {
                let sid = (start + k) % n;
                if state.streams[sid].busy {
                    continue;
                }
                // Resolve leading event commands inline.
                loop {
                    let resolved = {
                        let st = &mut state.streams[sid];
                        match st.queue.front().map(|p| &p.cmd) {
                            Some(Command::RecordEvent(e)) => {
                                e.signal(st.vdone);
                                true
                            }
                            Some(Command::WaitEvent(e)) => match e.signal_time() {
                                Some(t) => {
                                    st.vdone = st.vdone.max(t);
                                    true
                                }
                                // Never recorded anywhere: the wait is a
                                // no-op (CUDA contract), not a deadlock.
                                None => !e.is_recorded(),
                            },
                            _ => false,
                        }
                    };
                    if !resolved {
                        break;
                    }
                    let st = &mut state.streams[sid];
                    let Pending { seq, cmd, .. } = st.queue.pop_front().unwrap();
                    let kind = cmd.kind();
                    let at = st.vdone;
                    state.stream_stats[sid].commands += 1;
                    state.record(Event::Placed {
                        stream: Some(sid),
                        seq,
                        kind,
                        device: d,
                        start: at,
                        end: at,
                        words: 0,
                        instructions: 0,
                        kernel: None,
                    });
                    self.complete(state, 1);
                    progress = true;
                }
                // Batch consecutive executable commands, stopping after a
                // launch so co-resident streams interleave. Fault
                // decisions are drawn here, under the lock, so the
                // sticky-device eligibility check sees a consistent
                // health state (the decision itself is a pure hash of
                // (seed, stream, seq, attempt) — claim order does not
                // perturb it).
                let sticky_active = self
                    .plan
                    .as_ref()
                    .and_then(|plan| plan.sticky())
                    .is_some_and(|s| {
                        !state.sticky_disabled
                            && state.device_health[s.device] != DeviceHealth::Quarantined
                    });
                let st = &mut state.streams[sid];
                if matches!(
                    st.queue.front().map(|p| &p.cmd),
                    Some(Command::CopyIn { .. })
                        | Some(Command::CopyOut { .. })
                        | Some(Command::Launch { .. })
                ) {
                    let mut batch = Vec::new();
                    while batch.len() < MAX_BATCH {
                        let (is_launch, is_copy) = match st.queue.front().map(|p| &p.cmd) {
                            Some(Command::Launch { .. }) => (true, false),
                            Some(Command::CopyIn { .. }) | Some(Command::CopyOut { .. }) => {
                                (false, true)
                            }
                            _ => break,
                        };
                        let p = st.queue.pop_front().unwrap();
                        let fault = self.plan.as_ref().and_then(|plan| {
                            plan.decide(
                                sid as u64,
                                p.seq,
                                p.attempt as u64,
                                is_copy,
                                self.cfg.devices,
                                p.avoid,
                                sticky_active,
                            )
                        });
                        batch.push((p, fault));
                        if is_launch {
                            break;
                        }
                    }
                    st.busy = true;
                    state.scan_from[d] = sid + 1;
                    state.record(Event::Batch {
                        stream: sid,
                        device: d,
                        commands: batch.len() as u64,
                    });
                    return Some((sid, batch));
                }
            }
            if !progress {
                return None;
            }
            // Inline event resolution may have unblocked a stream this
            // pass already went by: rescan.
        }
    }

    /// Publish a finished batch, under the caller's lock (the worker
    /// claims its next batch in the same critical section): retire or
    /// fail each command in completion order, resolve its handle, judge
    /// a fault (retry or give up), drain the stream if it was poisoned.
    /// `d` is the physical worker that executed the batch; it only
    /// accounts for `batches`. `requeue` is the unexecuted tail of a
    /// batch cut short by a fault — it returns to the queue front, in
    /// order, behind the retried command itself.
    fn publish(&self, state: &mut SchedState, d: usize, finished: Finished) {
        let Finished {
            sid,
            done,
            requeue,
            buffer,
        } = finished;
        // Commands whose handle resolved (retried commands stay
        // outstanding).
        let mut resolved = 0u64;
        let mut retry: Option<Pending> = None;
        for item in done {
            match item {
                Done::Retired(cmd, sink) => {
                    resolved += 1;
                    self.retire(state, &cmd);
                    match (sink, cmd.launch) {
                        (Sink::CopyOut(slot, data), _) => slot.set(Ok(data)),
                        (Sink::Launch(slot), Some(l)) => slot.set(Ok(l.outcome.stats)),
                        _ => {}
                    }
                }
                Done::Failed { error, cmd } => {
                    resolved += 1;
                    self.fail(state, sid, cmd, &error, true);
                }
                Done::Fault {
                    pending,
                    kind,
                    injected,
                    device,
                    error,
                    cycles,
                } => {
                    let attempt = pending.attempt + 1;
                    self.fault(state, sid, device, attempt, kind, injected, cycles);
                    if attempt < self.cfg.recovery.max_attempts {
                        // Retry: charge the modeled exponential backoff
                        // to the stream's timeline and requeue the
                        // command at the front, steered away from the
                        // blamed device.
                        let backoff = self.cfg.recovery.backoff_cycles(attempt);
                        state.streams[sid].vdone += backoff;
                        if let Some(m) = &mut state.metrics {
                            m.retries += 1;
                            m.retry_backoff.record(backoff);
                            m.failovers += u64::from(self.cfg.devices > 1);
                        }
                        state.record(Event::Retry {
                            stream: sid,
                            device,
                            attempt,
                            backoff_cycles: backoff,
                        });
                        retry = Some(Pending {
                            attempt,
                            avoid: Some(device),
                            ..pending
                        });
                    } else {
                        // Attempts exhausted: the command fails with
                        // its last fault's typed error and the stream
                        // picks up the sticky poison.
                        resolved += 1;
                        if let Some(m) = &mut state.metrics {
                            m.terminal_failures += 1;
                        }
                        self.fail(state, sid, pending.cmd, &error, true);
                    }
                }
            }
        }
        state.device_stats[d].batches += 1;
        // A fault cut the batch short: the unexecuted tail returns to
        // the queue front in order, behind the retried command itself.
        {
            let st = &mut state.streams[sid];
            for p in requeue.into_iter().rev() {
                st.queue.push_front(p);
            }
            if let Some(p) = retry {
                st.queue.push_front(p);
            }
        }
        // Poisoned streams fail their entire backlog immediately with
        // the sticky marker (the root cause already went to the command
        // that failed).
        if state.streams[sid].poisoned.is_some() {
            let sticky = Self::sticky_error(&state.streams[sid], sid);
            while let Some(p) = state.streams[sid].queue.pop_front() {
                self.fail(state, sid, p.cmd, &sticky, false);
            }
        }
        let st = &mut state.streams[sid];
        let (depth, at) = (st.queue.len() as u64, st.vdone);
        st.depth_watermark = st.depth_watermark.max(depth);
        let outstanding = state.outstanding as u64;
        state.record(Event::Publish {
            stream: sid,
            device: d,
            commands: resolved,
            depth,
            outstanding,
            at,
        });
        state.streams[sid].buffer = Some(buffer);
        state.streams[sid].busy = false;
    }

    /// Book one fault against the device it is blamed on: charge the
    /// modeled fault time (the watchdog budget for hangs, zero
    /// otherwise) to its compute engine and push the stream frontier
    /// past it — a hang costs its full budget on the virtual timeline —
    /// then count the fault and walk the device's health state.
    /// `attempt` is the attempt number that faulted (1 = first
    /// execution).
    #[allow(clippy::too_many_arguments)]
    fn fault(
        &self,
        state: &mut SchedState,
        sid: usize,
        device: usize,
        attempt: u32,
        kind: FaultKind,
        injected: bool,
        cycles: u64,
    ) {
        let ready = state.streams[sid].vdone;
        let end = state.vcompute[device].max(ready) + cycles;
        state.vcompute[device] = end;
        state.streams[sid].vdone = end;
        state.device_stats[device].busy_cycles += cycles;
        state.device_faults[device] += 1;
        let faults = state.device_faults[device];
        let was = state.device_health[device];
        let now = was.after_faults(faults, &self.cfg.recovery);
        state.device_health[device] = now;
        if now != was && now == DeviceHealth::Quarantined {
            state.pending_quarantines.push(device);
            if let Some(m) = &mut state.metrics {
                m.quarantines += 1;
            }
            state.record(Event::Quarantine { device, faults });
        }
        if let Some(m) = &mut state.metrics {
            if injected {
                *m.faults_injected.entry(kind.label()).or_default() += 1;
            }
            m.timeouts += u64::from(matches!(kind, FaultKind::HungKernel));
        }
        if let Some(ring) = &mut state.events {
            ring.record(Event::Fault {
                stream: sid,
                device,
                attempt,
                family: kind.label().to_string(),
                injected,
            });
        }
    }
}

/// Write down what one compile-cache lookup did: the compile tier's
/// outcome, on a detailed ring the pass runs of a fresh compile, then
/// the decode tier's.
fn record_lookup(ring: &mut EventRing, lookup: &Lookup) {
    let label = &lookup.label;
    let tier = |tier| Event::CacheLookup {
        kernel: Arc::clone(label),
        tier,
        hit: lookup.hit,
        decoded: true,
    };
    ring.record(tier(CacheTier::Compile));
    for ps in &lookup.passes {
        ring.detail(|| Event::PassRun {
            kernel: label.to_string(),
            pass: ps.pass.to_string(),
            insts_before: ps.insts_before,
            insts_after: ps.insts_after,
            changed: ps.changed,
        });
    }
    ring.record(tier(CacheTier::Decode));
}

/// Least-loaded engine pick: the device whose engine can start this
/// command earliest given its `ready` time, ties broken toward the
/// lower device id. Quarantined devices and the retried command's
/// blamed device (`avoid`) are excluded; when the exclusions ban every
/// device (a one-device pool retrying, or everything quarantined), the
/// pick falls back to the unfiltered rule rather than deadlock.
/// Advances the chosen engine's clock past the command and returns
/// `(device, start)`.
fn place(
    engines: &mut [u64],
    ready: u64,
    cycles: u64,
    health: &[DeviceHealth],
    avoid: Option<usize>,
) -> (usize, u64) {
    let (start, p) = engines
        .iter()
        .enumerate()
        .filter(|&(d, _)| health[d] != DeviceHealth::Quarantined && Some(d) != avoid)
        .map(|(d, &t)| (t.max(ready), d))
        .min()
        .unwrap_or_else(|| {
            engines
                .iter()
                .enumerate()
                .map(|(d, &t)| (t.max(ready), d))
                .min()
                .expect("pool has at least one device")
        });
    engines[p] = start + cycles;
    (p, start)
}

/// Body of one device worker thread.
pub(crate) fn worker_loop(shared: Arc<Shared>, mut device: Device) {
    let d = device.id;
    let mut finished: Option<Finished> = None;
    loop {
        // One critical section per batch: publish the batch just run,
        // then claim the next (or sleep until there is one).
        let (sid, batch, mut buffer, pass_wake) = {
            let mut state = shared.state.lock().unwrap();
            if let Some(f) = finished.take() {
                shared.publish(&mut state, d, f);
            }
            let mut woken = false;
            let (sid, batch) = loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if !state.paused {
                    if let Some(claimed) = shared.claim(&mut state, d) {
                        break claimed;
                    }
                }
                if woken {
                    state.device_stats[d].idle_wakeups += 1;
                }
                state.parked.push(d);
                state = shared.work[d].wait(state).unwrap();
                // Whoever woke this worker took it off the list; a
                // spurious return finds it still there.
                state.parked.retain(|&w| w != d);
                state.device_stats[d].wakeups += 1;
                woken = true;
            };
            let buffer = state.streams[sid]
                .buffer
                .take()
                .expect("idle stream owns its buffer");
            // This worker is now busy; if it leaves claimable work
            // behind, the wake that brought it here must travel on.
            let pass_wake = state.sleeper_if(SchedState::any_claimable);
            (sid, batch, buffer, pass_wake)
        };
        shared.wake(pass_wake);

        // Execute outside the lock. A fault (injected or a real
        // watchdog timeout) stops the batch: the faulted command goes
        // back through `publish` for its retry/terminal decision, and
        // the unexecuted tail is returned untouched for requeueing
        // (its stale fault decisions are dropped — they are redrawn,
        // and redrawn identically, at the next claim).
        let mut done = Vec::with_capacity(batch.len());
        let mut requeue: Vec<Pending> = Vec::new();
        let mut poison: Option<RuntimeError> = None;
        let mut batch_iter = batch.into_iter();
        while let Some((pending, fault)) = batch_iter.next() {
            let Pending {
                seq,
                attempt,
                avoid,
                faulted,
                cmd,
            } = pending;
            if let Some(p) = &poison {
                done.push(Done::Failed {
                    error: p.clone(),
                    cmd,
                });
                continue;
            }
            if let Some(f) = fault {
                // Injected fault: the command never executes (no side
                // effects), so its eventual retry is bit-exact with the
                // fault-free history.
                let error = match f.kind {
                    FaultKind::TransientLaunch => RuntimeError::LaunchFault {
                        kernel: kernel_name(&cmd),
                        device: f.device,
                        attempt: attempt + 1,
                    },
                    FaultKind::HungKernel => RuntimeError::Timeout {
                        kernel: kernel_name(&cmd),
                        device: f.device,
                        budget_cycles: shared.cfg.recovery.watchdog_cycle_budget,
                    },
                    FaultKind::CopyFault => RuntimeError::CopyFault {
                        device: f.device,
                        attempt: attempt + 1,
                    },
                    FaultKind::DeviceFailure => RuntimeError::DeviceFailed { device: f.device },
                };
                let cycles = match f.kind {
                    FaultKind::HungKernel => shared.cfg.recovery.watchdog_cycle_budget,
                    _ => 0,
                };
                done.push(Done::Fault {
                    pending: Pending {
                        seq,
                        attempt,
                        avoid,
                        faulted: true,
                        cmd,
                    },
                    kind: f.kind,
                    injected: true,
                    device: f.device,
                    error,
                    cycles,
                });
                requeue.extend(batch_iter.by_ref().map(|(p, _)| p));
                break;
            }
            let t0 = Instant::now();
            let retired = |kind, cycles, words: usize, launch, sink| {
                let origin = Origin::Stream {
                    sid,
                    faulted,
                    avoid,
                };
                let cmd = Retired {
                    origin,
                    seq,
                    kind,
                    cycles,
                    words: words as u64,
                    wall: t0.elapsed(),
                    launch,
                };
                Done::Retired(cmd, sink)
            };
            match cmd {
                Command::CopyIn { dst, data } => {
                    if let Err(error) = buffer.copy_in(dst, &data) {
                        poison = Some(RuntimeError::StreamPoisoned { stream: sid });
                        done.push(Done::Failed {
                            error,
                            cmd: Command::CopyIn {
                                dst,
                                data: Vec::new(),
                            },
                        });
                        continue;
                    }
                    let cycles = device.copy_cycles(data.len());
                    done.push(retired(
                        CommandKind::CopyIn,
                        cycles,
                        data.len(),
                        None,
                        Sink::None,
                    ));
                }
                Command::CopyOut { src, len, sink } => {
                    let data = match buffer.window(src, len) {
                        Ok(words) => words.to_vec(),
                        Err(error) => {
                            poison = Some(RuntimeError::StreamPoisoned { stream: sid });
                            done.push(Done::Failed {
                                error,
                                cmd: Command::CopyOut { src, len, sink },
                            });
                            continue;
                        }
                    };
                    let (cycles, sink) = (device.copy_cycles(len), Sink::CopyOut(sink, data));
                    done.push(retired(CommandKind::CopyOut, cycles, len, None, sink));
                }
                Command::Launch { spec, sink } => match device.run_launch(&spec, &mut buffer) {
                    Ok(outcome) => {
                        let cycles = outcome.stats.cycles;
                        let launch = Launched {
                            outcome,
                            name: Cow::Owned(spec.name),
                        };
                        let sink = Sink::Launch(sink);
                        done.push(retired(CommandKind::Launch, cycles, 0, Some(launch), sink));
                    }
                    Err(e @ RuntimeError::Timeout { .. }) => {
                        // A real watchdog kill is retryable: the budget
                        // check fires before write-back, so the buffer
                        // is untouched.
                        done.push(Done::Fault {
                            pending: Pending {
                                seq,
                                attempt,
                                avoid,
                                faulted: true,
                                cmd: Command::Launch { spec, sink },
                            },
                            kind: FaultKind::HungKernel,
                            injected: false,
                            device: d,
                            error: e,
                            cycles: shared.cfg.recovery.watchdog_cycle_budget,
                        });
                        requeue.extend(batch_iter.by_ref().map(|(p, _)| p));
                        break;
                    }
                    Err(e) => {
                        // Deterministic failures (bad program, bad
                        // config) do not benefit from a retry.
                        poison = Some(RuntimeError::StreamPoisoned { stream: sid });
                        done.push(Done::Failed {
                            error: e,
                            cmd: Command::Launch { spec, sink },
                        });
                    }
                },
                Command::RecordEvent(_) | Command::WaitEvent(_) => {
                    unreachable!("event commands are resolved inline by claim()")
                }
            }
        }

        finished = Some(Finished {
            sid,
            done,
            requeue,
            buffer,
        });
    }
}

/// Kernel name of a launch command (empty for copies — only launch
/// faults carry one).
fn kernel_name(cmd: &Command) -> String {
    match cmd {
        Command::Launch { spec, .. } => spec.name.clone(),
        _ => String::new(),
    }
}
