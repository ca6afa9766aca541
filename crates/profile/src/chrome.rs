//! Chrome trace-event JSON exporter.
//!
//! Renders an [`Event`] stream as the Trace Event Format's JSON
//! array flavor, loadable in `chrome://tracing` and Perfetto. The
//! track model:
//!
//! * one *process* per device (`device0`, `device1`, …) with one
//!   *thread* per engine — `compute` (kernel spans, graph launch
//!   nodes), `dma` (copy spans, graph copy nodes) and `sync` (event
//!   record/wait instants);
//! * one `streams` process with one thread per stream, carrying each
//!   stream's commands as spans (the stream-ordered view of the same
//!   work) plus launch-dispatch instants;
//! * one `host` process for work with no modeled timeline — compile /
//!   decode cache lookups and optimization pass runs (`compiler`
//!   thread, sequenced by record order) and whole-graph replay spans
//!   (`graph` thread).
//!
//! Timestamps are **modeled device cycles mapped 1:1 to microseconds**
//! — the timeline shows virtual time, not host wall-clock, so exports
//! are deterministic. Every emitted object carries the same key set
//! (`name, cat, ph, ts, dur, pid, tid, args`), which keeps structural
//! validation trivial.

use crate::summary::summarize;
use crate::{labels, CacheTier, CommandKind, Event};
use serde::Value;
use std::collections::BTreeMap;

/// Process id carrying host-side (untimed) tracks.
pub const HOST_PID: u64 = 0;
/// First device process id (device `d` → pid `DEVICE_PID0 + d`).
pub const DEVICE_PID0: u64 = 1;
/// Process id carrying the per-stream tracks.
pub const STREAMS_PID: u64 = 10_000;

/// Compute-engine thread id within a device process.
pub const TID_COMPUTE: u64 = 0;
/// DMA-engine thread id within a device process.
pub const TID_DMA: u64 = 1;
/// Sync thread id within a device process.
pub const TID_SYNC: u64 = 2;

/// Compiler thread id within the host process.
const TID_COMPILER: u64 = 0;
/// Graph-replay thread id within the host process.
const TID_GRAPH: u64 = 1;

fn entry(k: &str, v: Value) -> (String, Value) {
    (k.to_string(), v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn u(v: u64) -> Value {
    Value::U64(v)
}

/// One uniformly-shaped trace object.
#[allow(clippy::too_many_arguments)]
fn obj(
    name: &str,
    cat: &str,
    ph: &str,
    ts: u64,
    dur: u64,
    pid: u64,
    tid: u64,
    args: Vec<(String, Value)>,
) -> Value {
    let mut fields = vec![
        entry("name", s(name)),
        entry("cat", s(cat)),
        entry("ph", s(ph)),
        entry("ts", u(ts)),
        entry("dur", u(dur)),
        entry("pid", u(pid)),
        entry("tid", u(tid)),
    ];
    if ph == "i" {
        // Thread-scoped instant; extra key, same mandatory shape.
        fields.push(entry("s", s("t")));
    }
    fields.push(entry("args", Value::Map(args)));
    Value::Map(fields)
}

/// A complete (`"ph":"X"`) event over `[ts, end)`.
fn span(
    name: &str,
    cat: &str,
    ts: u64,
    end: u64,
    (pid, tid): (u64, u64),
    args: Vec<(String, Value)>,
) -> Value {
    obj(name, cat, "X", ts, end.saturating_sub(ts), pid, tid, args)
}

/// `kernel`, or `fallback` when the event carries no (or an empty) name.
fn named<'a>(kernel: Option<&'a str>, fallback: &'a str) -> &'a str {
    kernel.filter(|k| !k.is_empty()).unwrap_or(fallback)
}

/// Track registries: pid → process name, (pid, tid) → thread name.
#[derive(Default)]
struct Tracks {
    processes: BTreeMap<u64, String>,
    threads: BTreeMap<(u64, u64), String>,
}

impl Tracks {
    fn thread(&mut self, pid: u64, process: impl FnOnce() -> String, tid: u64, thread: &str) {
        self.processes.entry(pid).or_insert_with(process);
        self.threads
            .entry((pid, tid))
            .or_insert_with(|| thread.to_string());
    }

    /// Engine `tid` of device `d`.
    fn device(&mut self, d: usize, tid: u64) -> (u64, u64) {
        let pid = DEVICE_PID0 + d as u64;
        let name = match tid {
            TID_COMPUTE => "compute",
            TID_DMA => "dma",
            _ => "sync",
        };
        self.thread(pid, || labels::device(d), tid, name);
        (pid, tid)
    }

    /// The stream-ordered row of `stream`.
    fn stream(&mut self, stream: usize) -> (u64, u64) {
        let tid = stream as u64;
        self.thread(
            STREAMS_PID,
            || "streams".into(),
            tid,
            &labels::stream(stream),
        );
        (STREAMS_PID, tid)
    }

    /// Thread `tid` of the host process.
    fn host(&mut self, tid: u64, name: &str) -> (u64, u64) {
        self.thread(HOST_PID, || "host".into(), tid, name);
        (HOST_PID, tid)
    }
}

/// Render the event stream as a Chrome trace [`Value`] tree (a JSON
/// array of trace objects). `dropped` is the ring's overwritten-event
/// count ([`crate::EventRing::dropped`]); it is surfaced in a
/// `trace_metadata` record so a truncated export is visibly partial.
/// Events with no place on a timeline (batch claims, pause/resume, the
/// fault lifecycle) are skipped. Useful when the caller wants to
/// post-process before serializing; most callers want
/// [`chrome_trace`].
pub fn chrome_trace_value(events: &[Event], dropped: u64) -> Value {
    let mut tracks = Tracks::default();
    let mut body: Vec<Value> = Vec::new();
    // Host-side events have no modeled timeline; sequence them by
    // record order so the track is stable and deterministic.
    let mut host_seq: u64 = 0;

    for e in events {
        match e {
            Event::Enqueue {
                stream,
                depth,
                outstanding,
                at,
                ..
            }
            | Event::Publish {
                stream,
                depth,
                outstanding,
                at,
                ..
            } => {
                // Counter tracks ("ph":"C"): Perfetto renders one
                // stepped timeline per (pid, name). Per-stream queue
                // depth lives on the streams process; the pool-wide
                // outstanding count on the host process.
                tracks
                    .processes
                    .entry(STREAMS_PID)
                    .or_insert_with(|| "streams".into());
                tracks
                    .processes
                    .entry(HOST_PID)
                    .or_insert_with(|| "host".into());
                let depth_track = format!("stream_queue_depth {}", labels::stream(*stream));
                for (track, pid, value) in [
                    (depth_track.as_str(), STREAMS_PID, depth),
                    ("outstanding_commands", HOST_PID, outstanding),
                ] {
                    let args = vec![entry("value", u(*value))];
                    body.push(obj(track, "gauge", "C", *at, 0, pid, 0, args));
                }
            }
            Event::Placed {
                stream: Some(stream),
                seq,
                kind,
                device,
                start,
                end,
                words,
                instructions,
                kernel,
            } => {
                let ids = [entry("stream", u(*stream as u64)), entry("seq", u(*seq))];
                let (cat, name, tid, detail) = match kind {
                    CommandKind::Launch => (
                        "kernel",
                        named(kernel.as_deref(), "kernel"),
                        TID_COMPUTE,
                        entry("instructions", u(*instructions)),
                    ),
                    CommandKind::CopyIn => ("copy", "copy-in", TID_DMA, entry("words", u(*words))),
                    CommandKind::CopyOut => {
                        ("copy", "copy-out", TID_DMA, entry("words", u(*words)))
                    }
                    CommandKind::EventRecord | CommandKind::EventWait => {
                        let name = match kind {
                            CommandKind::EventRecord => "record",
                            _ => "wait",
                        };
                        let (pid, tid) = tracks.device(*device, TID_SYNC);
                        body.push(obj(name, "sync", "i", *start, 0, pid, tid, ids.into()));
                        continue;
                    }
                };
                let row = tracks.stream(*stream);
                if *kind == CommandKind::Launch {
                    // Dispatch instant on the stream row.
                    body.push(obj(
                        &format!("launch {name}"),
                        cat,
                        "i",
                        *start,
                        0,
                        row.0,
                        row.1,
                        vec![entry("seq", u(*seq)), entry("device", u(*device as u64))],
                    ));
                }
                let engine = tracks.device(*device, tid);
                let [stream_id, seq_id] = ids;
                let args = vec![stream_id, seq_id, detail];
                body.push(span(name, cat, *start, *end, engine, args));
                // Stream-ordered view of the same span.
                body.push(span(name, cat, *start, *end, row, Vec::new()));
            }
            Event::Placed {
                stream: None,
                seq: node,
                kind,
                device,
                start,
                end,
                kernel,
                ..
            } => {
                let (tid, name) = match kind {
                    CommandKind::Launch => (
                        TID_COMPUTE,
                        named(kernel.as_deref(), &format!("node{node}")).to_string(),
                    ),
                    CommandKind::CopyIn => (TID_DMA, format!("node{node} copy-in")),
                    _ => (TID_DMA, format!("node{node} copy-out")),
                };
                let engine = tracks.device(*device, tid);
                let args = vec![entry("node", u(*node))];
                body.push(span(&name, "graph", *start, *end, engine, args));
            }
            Event::GraphReplayDone { nodes, span_cycles } => {
                let track = tracks.host(TID_GRAPH, "graph");
                let args = vec![entry("nodes", u(*nodes as u64))];
                body.push(span("replay", "graph", 0, *span_cycles, track, args));
            }
            Event::CacheLookup {
                kernel,
                tier,
                hit,
                decoded,
            } => {
                let (outcome, args) = match (tier, hit) {
                    (CacheTier::Compile, true) => {
                        ("hit", vec![entry("decoded", Value::Bool(*decoded))])
                    }
                    (CacheTier::Compile, false) => ("miss", Vec::new()),
                    (CacheTier::Decode, true) => ("decode-hit", Vec::new()),
                    (CacheTier::Decode, false) => ("decode-miss", Vec::new()),
                };
                let track = tracks.host(TID_COMPILER, "compiler");
                let name = format!("{outcome} {}", named(Some(kernel), "?"));
                body.push(span(&name, "cache", host_seq, host_seq + 1, track, args));
                host_seq += 1;
            }
            Event::PassRun {
                kernel,
                pass,
                insts_before,
                insts_after,
                changed,
            } => {
                let track = tracks.host(TID_COMPILER, "compiler");
                let name = format!("{pass} {}", named(Some(kernel), "?"));
                let args = vec![
                    entry("insts_before", u(*insts_before as u64)),
                    entry("insts_after", u(*insts_after as u64)),
                    entry("changed", Value::Bool(*changed)),
                ];
                body.push(span(&name, "compiler", host_seq, host_seq + 1, track, args));
                host_seq += 1;
            }
            Event::Batch { .. }
            | Event::Pause
            | Event::Resume
            | Event::Failed { .. }
            | Event::Fault { .. }
            | Event::Retry { .. }
            | Event::Quarantine { .. }
            | Event::DeviceReset { .. }
            | Event::Health { .. } => {}
        }
    }

    // Metadata first (Perfetto reads it anywhere, humans read it here).
    // The trace-level record carries completeness: how many timeline
    // marks the export draws and how many events the ring overwrote —
    // a trace with drops is partial and must say so.
    let metadata =
        |name: &str, pid: u64, tid: u64, args| obj(name, "__metadata", "M", 0, 0, pid, tid, args);
    let mut out = vec![metadata(
        "trace_metadata",
        HOST_PID,
        0,
        vec![
            entry("events", u(summarize(events, dropped).events)),
            entry("dropped_events", u(dropped)),
        ],
    )];
    for (pid, name) in &tracks.processes {
        out.push(metadata(
            "process_name",
            *pid,
            0,
            vec![entry("name", s(name))],
        ));
    }
    for ((pid, tid), name) in &tracks.threads {
        out.push(metadata(
            "thread_name",
            *pid,
            *tid,
            vec![entry("name", s(name))],
        ));
    }
    out.extend(body);
    Value::Seq(out)
}

/// Render the event stream as a Chrome trace-event JSON string.
/// `dropped` is the ring's overwritten-event count, surfaced in the
/// export's `trace_metadata` record.
pub fn chrome_trace(events: &[Event], dropped: u64) -> String {
    serde_json::to_string(&chrome_trace_value(events, dropped)).expect("trace value serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placed(stream: Option<usize>, seq: u64, kind: CommandKind, device: usize) -> Event {
        Event::Placed {
            stream,
            seq,
            kind,
            device,
            start: 13,
            end: 113,
            words: 4,
            instructions: 42,
            kernel: (kind == CommandKind::Launch).then(|| "saxpy".into()),
        }
    }

    fn sample() -> Vec<Event> {
        vec![
            placed(Some(0), 1, CommandKind::Launch, 0),
            placed(Some(0), 0, CommandKind::CopyIn, 1),
            placed(None, 2, CommandKind::Launch, 1),
            // Black-box-only: no place on a timeline.
            Event::Batch {
                stream: 0,
                device: 0,
                commands: 2,
            },
        ]
    }

    fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
        v.get_field(k).unwrap()
    }

    #[test]
    fn tracks_and_spans_are_emitted() {
        let v = chrome_trace_value(&sample(), 0);
        let Value::Seq(items) = &v else {
            panic!("trace is a JSON array")
        };
        // Metadata names the two device processes and the stream track.
        let meta: Vec<&Value> = items
            .iter()
            .filter(|i| field(i, "ph") == &Value::Str("M".into()))
            .collect();
        assert!(
            meta.len() >= 5,
            "process + thread metadata, got {}",
            meta.len()
        );
        // The kernel span lands on device0/compute with its duration.
        let kernel = items
            .iter()
            .find(|i| {
                field(i, "cat") == &Value::Str("kernel".into())
                    && field(i, "ph") == &Value::Str("X".into())
                    && field(i, "pid") == &Value::U64(DEVICE_PID0)
            })
            .expect("kernel span on device 0");
        assert_eq!(field(kernel, "name"), &Value::Str("saxpy".into()));
        assert_eq!(field(kernel, "ts"), &Value::U64(13));
        assert_eq!(field(kernel, "dur"), &Value::U64(100));
        assert_eq!(field(kernel, "tid"), &Value::U64(TID_COMPUTE));
        // The copy span lands on device1/dma.
        let copy = items
            .iter()
            .find(|i| {
                field(i, "cat") == &Value::Str("copy".into())
                    && field(i, "pid") == &Value::U64(DEVICE_PID0 + 1)
            })
            .expect("copy span on device 1");
        assert_eq!(field(copy, "tid"), &Value::U64(TID_DMA));
        // The graph node lands on device1/compute, named by its kernel.
        let node = items
            .iter()
            .find(|i| field(i, "cat") == &Value::Str("graph".into()))
            .expect("graph node span");
        assert_eq!(field(node, "pid"), &Value::U64(DEVICE_PID0 + 1));
        assert_eq!(
            field(node, "args").get_field("node").unwrap(),
            &Value::U64(2)
        );
        // The same work also shows on the stream track, dispatch
        // instant first.
        let row: Vec<&Value> = items
            .iter()
            .filter(|i| {
                field(i, "pid") == &Value::U64(STREAMS_PID)
                    && field(i, "ph") != &Value::Str("M".into())
            })
            .collect();
        assert_eq!(field(row[0], "name"), &Value::Str("launch saxpy".into()));
        assert_eq!(row.len(), 3, "launch instant + kernel span + copy span");
    }

    #[test]
    fn metadata_counts_timeline_marks_and_surfaces_drops() {
        let v = chrome_trace_value(&sample(), 7);
        let Value::Seq(items) = &v else {
            panic!("trace is a JSON array")
        };
        let meta = items
            .iter()
            .find(|i| field(i, "name") == &Value::Str("trace_metadata".into()))
            .expect("trace_metadata record");
        let args = field(meta, "args");
        assert_eq!(args.get_field("dropped_events").unwrap(), &Value::U64(7));
        // Launch dispatch + retire, one copy, one graph node; the batch
        // claim draws nothing.
        assert_eq!(args.get_field("events").unwrap(), &Value::U64(4));
    }

    #[test]
    fn json_string_is_parseable() {
        let json = chrome_trace(&sample(), 3);
        let back: Value = ::serde_json::from_str(&json).expect("valid JSON");
        let Value::Seq(items) = back else {
            panic!("array")
        };
        assert!(!items.is_empty());
        for i in &items {
            for k in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(i.get_field(k).is_ok(), "uniform shape: missing {k}");
            }
        }
    }

    #[test]
    fn queue_gauges_render_as_counter_tracks() {
        let ev = vec![Event::Enqueue {
            stream: 1,
            kind: CommandKind::Launch,
            depth: 3,
            outstanding: 5,
            at: 40,
        }];
        let v = chrome_trace_value(&ev, 0);
        let Value::Seq(items) = &v else {
            panic!("trace is a JSON array")
        };
        let counters: Vec<&Value> = items
            .iter()
            .filter(|i| field(i, "ph") == &Value::Str("C".into()))
            .collect();
        assert_eq!(counters.len(), 2);
        // Per-stream depth on the streams process, pool gauge on host.
        let depth = counters
            .iter()
            .find(|c| field(c, "pid") == &Value::U64(STREAMS_PID))
            .expect("stream counter");
        assert_eq!(
            field(depth, "name"),
            &Value::Str("stream_queue_depth stream1".into())
        );
        assert_eq!(field(depth, "ts"), &Value::U64(40));
        assert_eq!(
            field(depth, "args").get_field("value").unwrap(),
            &Value::U64(3)
        );
        let outstanding = counters
            .iter()
            .find(|c| field(c, "pid") == &Value::U64(HOST_PID))
            .expect("host counter");
        assert_eq!(
            field(outstanding, "name"),
            &Value::Str("outstanding_commands".into())
        );
        assert_eq!(
            field(outstanding, "args").get_field("value").unwrap(),
            &Value::U64(5)
        );
    }

    #[test]
    fn escaping_survives_hostile_names() {
        let ev = vec![Event::CacheLookup {
            kernel: "a\"b\\c\nd".into(),
            tier: CacheTier::Compile,
            hit: false,
            decoded: false,
        }];
        let json = chrome_trace(&ev, 0);
        let _: Value = ::serde_json::from_str(&json).expect("escaped JSON parses");
    }
}
