//! The event spine of the simt stack: one typed event, one bounded
//! ring, and the exporters that read it.
//!
//! Every layer that changes state — the stream scheduler and graph
//! replayer in `simt-runtime`, and through them the compile cache and
//! pass pipeline of `simt-compiler`, which report what they did by
//! value — has each transition written down once, as an [`Event`], in
//! one [`EventRing`] the runtime keeps behind its scheduler lock.
//! Everything else is a view of that ring:
//!
//! * the **trace** of a profiled runtime is all of it —
//!   [`chrome::chrome_trace`] renders a Chrome trace-event JSON string
//!   (loadable in `chrome://tracing` and Perfetto; one track per device
//!   engine, one per stream) and [`summary::summarize`] folds it into a
//!   flat serializable [`summary::TraceSummary`];
//! * the **black box** of every runtime is its newest records — the
//!   window `simt-forensics` bundles into a postmortem.
//!
//! Events carry **modeled cycles and sequence numbers only**, never
//! host wall-clock, so what was recorded is a function of the work and
//! the order it completed in.
//!
//! [`ProfileConfig`] is the opt-in switch for the expensive half:
//! allocation-carrying detail (pass runs, per-launch kernel names) is
//! recorded only by a ring built [`detailed`](EventRing::detailed), and
//! per-PC histograms only with [`ProfileConfig::per_pc`].
//!
//! The crate is deliberately leaf-level: it depends only on the
//! vendored `serde`, so `simt-forensics` and `simt-runtime` can both
//! build on it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod summary;

/// The label scheme shared between traces and metrics: the Chrome
/// exporter names its tracks with these strings, and `simt-runtime`
/// labels its per-stream / per-device metrics with the *same* strings —
/// so a hot `stream_launch_cycles{stream3}` histogram cross-references
/// directly into the `stream3` track of the trace (kernel-labeled
/// metrics use `LaunchSpec::name`, which is also the span name).
pub mod labels {
    /// Track/metric label of stream `id`.
    pub fn stream(id: usize) -> String {
        format!("stream{id}")
    }

    /// Track/metric label of device `id`.
    pub fn device(id: usize) -> String {
        format!("device{id}")
    }
}

use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Opt-in profiling configuration.
///
/// Attached to a runtime (or any other event producer) to enable
/// tracing. Absence of a `ProfileConfig` (`None`) is the disabled
/// state; the instrumented hot paths test exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileConfig {
    /// How many events the trace keeps. Recording past it overwrites
    /// the oldest events (counted) instead of reallocating.
    pub events: usize,
    /// Also collect per-PC cycle/issue histograms inside the µop
    /// interpreter (costs one counter update per retired µop).
    pub per_pc: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            events: 65536,
            per_pc: false,
        }
    }
}

impl ProfileConfig {
    /// Everything on: full event ring plus per-PC histograms.
    pub fn full() -> Self {
        ProfileConfig {
            per_pc: true,
            ..Default::default()
        }
    }
}

/// What kind of command an event or a graph placement refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommandKind {
    /// Host→device copy.
    CopyIn,
    /// Device→host copy.
    CopyOut,
    /// Kernel launch.
    Launch,
    /// Event record (stream timeline marker).
    EventRecord,
    /// Cross-stream event wait.
    EventWait,
}

/// Which kernel cache an [`Event::CacheLookup`] hit or missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheTier {
    /// The source-keyed compile cache (IR/asm → program).
    Compile,
    /// The predecode riding a compile-cache entry (program → µop
    /// stream).
    Decode,
}

/// One state transition. Timestamps (`start`, `end`, `at`) are modeled
/// device cycles on the scheduler's virtual timeline; every other
/// payload is an id or a count.
///
/// The exporters draw `Enqueue`/`Publish` (as gauge samples), `Placed`,
/// `GraphReplayDone`, `CacheLookup` and `PassRun`; the remaining
/// variants are the scheduler's own story and show up in the black box
/// only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A command entered a stream queue. `depth`/`outstanding` are the
    /// post-enqueue gauge values, so the ring doubles as a gauge
    /// timeline.
    Enqueue {
        /// Stream id.
        stream: usize,
        /// Command kind.
        kind: CommandKind,
        /// Queue depth of the stream after the push.
        depth: u64,
        /// Pool-wide outstanding commands after the push.
        outstanding: u64,
        /// The stream's completion front (modeled cycles) at the push.
        at: u64,
    },
    /// A worker claimed a batch of consecutive commands from a stream.
    Batch {
        /// Stream id the batch came from.
        stream: usize,
        /// Device that claimed it.
        device: usize,
        /// Commands in the batch.
        commands: u64,
    },
    /// A command completed and took its place on a device's virtual
    /// timeline: a launch on the compute engine, a copy on the DMA
    /// engine, an event record/wait as an instant (`start == end`).
    Placed {
        /// Stream the command was submitted on; `None` for a node of a
        /// graph replay (no stream queue involved).
        stream: Option<usize>,
        /// Sequence number within the stream, or node index within the
        /// graph.
        seq: u64,
        /// Command kind.
        kind: CommandKind,
        /// Device chosen by least-loaded placement (for event commands,
        /// the worker that resolved them).
        device: usize,
        /// Modeled start cycle on the device engine.
        start: u64,
        /// Modeled end cycle.
        end: u64,
        /// Words moved (copies; 0 otherwise).
        words: u64,
        /// Instructions issued (launches; 0 otherwise).
        instructions: u64,
        /// Kernel name of a launch, on a [detailed](EventRing::detailed)
        /// ring.
        kernel: Option<Arc<str>>,
    },
    /// A worker finished publishing a batch's results. Gauges are the
    /// post-publish values.
    Publish {
        /// Stream id.
        stream: usize,
        /// Device that executed the batch.
        device: usize,
        /// Commands published.
        commands: u64,
        /// Queue depth of the stream after the publish.
        depth: u64,
        /// Pool-wide outstanding commands after the publish.
        outstanding: u64,
        /// The stream's completion front (modeled cycles) after the
        /// publish.
        at: u64,
    },
    /// A whole graph replay completed.
    GraphReplayDone {
        /// Nodes replayed.
        nodes: usize,
        /// Modeled makespan of the replay.
        span_cycles: u64,
    },
    /// A compile- or decode-cache lookup resolved.
    CacheLookup {
        /// Name the artifact was compiled under, or an `asm#<hash>`
        /// label for assembly sources. Shared with the cache entry, so
        /// a hit allocates nothing.
        kernel: Arc<str>,
        /// Which cache tier.
        tier: CacheTier,
        /// True on hit.
        hit: bool,
        /// Whether the lookup asked for the predecoded form. Every
        /// lookup does (the cache keeps no other); recorded traces keep
        /// the field.
        decoded: bool,
    },
    /// One optimization pass ran over a kernel
    /// ([detailed](EventRing::detailed) rings only).
    PassRun {
        /// Kernel name.
        kernel: String,
        /// Pass name (as reported by the pipeline).
        pass: String,
        /// Instruction count entering the pass.
        insts_before: usize,
        /// Instruction count leaving the pass.
        insts_after: usize,
        /// Whether the pass changed the kernel.
        changed: bool,
    },
    /// The pool was paused (workers park; queues accumulate).
    Pause,
    /// The pool was resumed.
    Resume,
    /// A command failed; the stream is now poisoned.
    Failed {
        /// Stream id.
        stream: usize,
        /// Command kind.
        kind: CommandKind,
        /// Rendered runtime error.
        error: String,
    },
    /// A fault hit a command (injected by the chaos plan, or a real
    /// watchdog timeout).
    Fault {
        /// Stream id.
        stream: usize,
        /// Device the fault was blamed on.
        device: usize,
        /// Attempt number that faulted (1 = first execution).
        attempt: u32,
        /// Fault family label (see `simt_chaos::FaultKind::label`).
        family: String,
        /// False for a real watchdog timeout.
        injected: bool,
    },
    /// A faulted command was requeued for another attempt.
    Retry {
        /// Stream id.
        stream: usize,
        /// Device the faulted attempt was blamed on (the retry is
        /// steered elsewhere when the pool has an alternative).
        device: usize,
        /// Attempt number that faulted; the retry is `attempt + 1`.
        attempt: u32,
        /// Modeled backoff charged to the stream's virtual timeline.
        backoff_cycles: u64,
    },
    /// A device crossed its fault budget and left the placement pool.
    Quarantine {
        /// Device id.
        device: usize,
        /// Faults blamed on it at the transition.
        faults: u64,
    },
    /// A device was readmitted by `Runtime::reset_device`.
    DeviceReset {
        /// Device id.
        device: usize,
    },
    /// A health finding fired during a postmortem walk.
    Health {
        /// Compact finding label (see `HealthFinding::label`).
        finding: String,
    },
}

/// One recorded event with its global sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Global sequence number (total order of `record` calls).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// A bounded wrap-around event ring: it keeps the newest
/// [`capacity`](EventRing::capacity) records and counts the rest.
///
/// Plain single-owner data: [`EventRing::record`] takes `&mut self`,
/// bumps a counter and stores into slot `seq % capacity` — no atomic,
/// no lock of its own. Whoever owns the ring orders its writers (the
/// runtime keeps it behind the scheduler mutex, which already orders
/// every transition it records), and a reader that must not hold that
/// owner up takes a [`Clone`], which copies the surviving records only.
/// The storage is reserved up front, so nothing on the record path
/// allocates.
#[derive(Clone)]
pub struct EventRing {
    /// Records ever made — the next sequence number.
    head: u64,
    /// The newest `min(head, capacity)` records; `seq` sits at
    /// `seq % capacity`.
    slots: Vec<Record>,
    capacity: usize,
    detailed: bool,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity)
            .field("recorded", &self.head)
            .field("detailed", &self.detailed)
            .finish()
    }
}

impl EventRing {
    /// A ring keeping the newest `capacity` records. `detailed` says
    /// whether producers should also record what costs an allocation
    /// to say (see [`EventRing::detail`]).
    ///
    /// # Panics
    /// If `capacity` is zero — a disabled ring is a `None` at the call
    /// site (a branch, not an empty ring).
    pub fn new(capacity: usize, detailed: bool) -> Self {
        assert!(capacity > 0, "event ring capacity must be non-zero");
        EventRing {
            head: 0,
            slots: Vec::with_capacity(capacity),
            capacity,
            detailed,
        }
    }

    /// Record one event; returns its sequence number — the owner's
    /// order of `record` calls.
    pub fn record(&mut self, event: Event) -> u64 {
        let seq = self.head;
        self.head += 1;
        let record = Record { seq, event };
        if self.slots.len() < self.capacity {
            self.slots.push(record);
        } else {
            let slot = self.index(seq);
            self.slots[slot] = record;
        }
        seq
    }

    /// Whether this ring wants allocation-carrying detail: pass runs
    /// and per-launch kernel names (true iff profiling is on).
    pub fn detailed(&self) -> bool {
        self.detailed
    }

    /// Record `build()` on a [detailed](EventRing::detailed) ring; one
    /// branch, and `build` never runs, otherwise.
    pub fn detail(&mut self, build: impl FnOnce() -> Event) {
        if self.detailed {
            self.record(build());
        }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records lost to overwriting: everything recorded beyond the
    /// newest `capacity`.
    pub fn dropped(&self) -> u64 {
        self.head.saturating_sub(self.capacity as u64)
    }

    /// The newest `n` surviving records, ascending by sequence number:
    /// exactly the last `min(n, recorded, capacity)`.
    pub fn last(&self, n: usize) -> Vec<Record> {
        let window = n.min(self.slots.len()) as u64;
        (self.head - window..self.head)
            .map(|seq| self.slots[self.index(seq)].clone())
            .collect()
    }

    /// Every surviving record, ascending by sequence number.
    pub fn records(&self) -> Vec<Record> {
        self.last(self.capacity)
    }

    /// Every surviving event, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.records().into_iter().map(|r| r.event).collect()
    }

    fn index(&self, seq: u64) -> usize {
        (seq % self.capacity as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placed(seq: u64) -> Event {
        Event::Placed {
            stream: Some(0),
            seq,
            kind: CommandKind::Launch,
            device: 0,
            start: 10 * seq,
            end: 10 * seq + 5,
            words: 0,
            instructions: 3,
            kernel: Some("k".into()),
        }
    }

    #[test]
    fn record_order_is_reservation_order() {
        let mut ring = EventRing::new(8, false);
        for seq in 0..5 {
            assert_eq!(ring.record(placed(seq)), seq);
        }
        assert_eq!(ring.events(), (0..5).map(placed).collect::<Vec<_>>());
        assert_eq!(ring.dropped(), 0);
        let last2: Vec<u64> = ring.last(2).iter().map(|r| r.seq).collect();
        assert_eq!(last2, vec![3, 4]);
        assert_eq!(ring.last(100).len(), 5);
    }

    #[test]
    fn lapping_the_ring_leaves_the_newest_window() {
        let mut ring = EventRing::new(64, false);
        for seq in 0..2000 {
            ring.record(placed(seq));
            // Whole or lapped, the survivors are the newest sequence
            // numbers, ascending, each in its own slot.
            let recorded = seq + 1;
            assert_eq!(ring.recorded(), recorded);
            assert_eq!(ring.dropped(), recorded.saturating_sub(64));
            if recorded % 97 == 0 || recorded == 64 || recorded == 65 {
                let seqs: Vec<u64> = ring.records().iter().map(|r| r.seq).collect();
                assert_eq!(seqs, (ring.dropped()..recorded).collect::<Vec<_>>());
                assert_eq!(ring.last(3), ring.records()[seqs.len() - 3..]);
            }
        }
        assert_eq!(ring.events()[0], placed(2000 - 64));
        // A snapshot is a ring of its own.
        let snapshot = ring.clone();
        ring.record(placed(2000));
        assert_eq!(snapshot.recorded(), 2000);
        assert_eq!(snapshot.last(1)[0].event, placed(1999));
    }

    #[test]
    fn detail_is_recorded_only_on_a_detailed_ring() {
        let pass = || Event::PassRun {
            kernel: "k".into(),
            pass: "dce".into(),
            insts_before: 10,
            insts_after: 8,
            changed: true,
        };
        let mut plain = EventRing::new(4, false);
        plain.detail(|| unreachable!("never built on a plain ring"));
        assert_eq!(plain.recorded(), 0);
        let mut detailed = EventRing::new(4, true);
        detailed.detail(pass);
        assert_eq!(detailed.events(), vec![pass()]);
    }

    #[test]
    fn records_roundtrip_through_serde() {
        let mut ring = EventRing::new(8, true);
        ring.record(Event::Pause);
        ring.record(placed(7));
        ring.record(Event::CacheLookup {
            kernel: "saxpy".into(),
            tier: CacheTier::Compile,
            hit: false,
            decoded: true,
        });
        ring.record(Event::Failed {
            stream: 1,
            kind: CommandKind::CopyIn,
            error: "copy out of bounds".into(),
        });
        let records = ring.records();
        let json = serde_json::to_string(&records).unwrap();
        let back: Vec<Record> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, records);
    }
}
