//! Flat trace summary: the event stream folded into serializable
//! counters, consumed by the bench harness's `tables --profile` output
//! and handy for quick assertions in tests.
//!
//! The summary counts *timeline marks* — what a trace draws — not ring
//! records: a placed launch is two (its dispatch and its retire), an
//! enqueue or publish is two gauge samples, and events with no place on
//! a timeline (batch claims, pause/resume, the fault lifecycle) count
//! for nothing.

use crate::{CacheTier, CommandKind, Event};
use serde::{Deserialize, Serialize};

/// Mark count for one category label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CategoryCount {
    /// Category label: `kernel`, `copy`, `sync`, `graph`, `cache`,
    /// `compiler` or `gauge`.
    pub category: String,
    /// Marks recorded in the category.
    pub events: u64,
}

/// A flat roll-up of one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total timeline marks summarized (the sum of `by_category`).
    pub events: u64,
    /// Events the ring overwrote before the snapshot.
    pub dropped: u64,
    /// Kernel launches dispatched.
    pub kernel_launches: u64,
    /// Kernel launches retired.
    pub kernel_retires: u64,
    /// Modeled cycles spent in retired kernels.
    pub kernel_cycles: u64,
    /// Instructions issued by retired kernels.
    pub instructions: u64,
    /// Copies completed (either direction).
    pub copies: u64,
    /// Words moved by copies.
    pub copy_words: u64,
    /// Modeled cycles spent in copies.
    pub copy_cycles: u64,
    /// Event records plus event waits.
    pub sync_commands: u64,
    /// Graph nodes placed during replays.
    pub graph_nodes: u64,
    /// Graph replays completed.
    pub graph_replays: u64,
    /// Compile-cache hits.
    pub compile_hits: u64,
    /// Compile-cache misses.
    pub compile_misses: u64,
    /// Decode-cache hits.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
    /// Optimization pass runs observed.
    pub pass_runs: u64,
    /// Pass runs that changed their kernel.
    pub passes_changed: u64,
    /// Gauge samples recorded (queue depth / outstanding counters).
    pub gauge_samples: u64,
    /// Per-category mark counts, sorted by category label.
    pub by_category: Vec<CategoryCount>,
}

/// Fold an event stream (plus the ring's overwritten-event count) into
/// a [`TraceSummary`].
pub fn summarize(events: &[Event], dropped: u64) -> TraceSummary {
    let mut s = TraceSummary {
        dropped,
        ..Default::default()
    };
    for e in events {
        match e {
            Event::Placed { stream: None, .. } => s.graph_nodes += 1,
            Event::Placed {
                kind,
                start,
                end,
                words,
                instructions,
                ..
            } => match kind {
                CommandKind::Launch => {
                    s.kernel_launches += 1;
                    s.kernel_retires += 1;
                    s.kernel_cycles += end.saturating_sub(*start);
                    s.instructions += instructions;
                }
                CommandKind::CopyIn | CommandKind::CopyOut => {
                    s.copies += 1;
                    s.copy_words += words;
                    s.copy_cycles += end.saturating_sub(*start);
                }
                CommandKind::EventRecord | CommandKind::EventWait => s.sync_commands += 1,
            },
            Event::GraphReplayDone { .. } => s.graph_replays += 1,
            Event::CacheLookup { tier, hit, .. } => {
                *match (tier, hit) {
                    (CacheTier::Compile, true) => &mut s.compile_hits,
                    (CacheTier::Compile, false) => &mut s.compile_misses,
                    (CacheTier::Decode, true) => &mut s.decode_hits,
                    (CacheTier::Decode, false) => &mut s.decode_misses,
                } += 1;
            }
            Event::PassRun { changed, .. } => {
                s.pass_runs += 1;
                s.passes_changed += u64::from(*changed);
            }
            Event::Enqueue { .. } | Event::Publish { .. } => s.gauge_samples += 2,
            _ => {}
        }
    }
    let cache = s.compile_hits + s.compile_misses + s.decode_hits + s.decode_misses;
    s.by_category = [
        ("cache", cache),
        ("compiler", s.pass_runs),
        ("copy", s.copies),
        ("gauge", s.gauge_samples),
        ("graph", s.graph_nodes + s.graph_replays),
        ("kernel", s.kernel_launches + s.kernel_retires),
        ("sync", s.sync_commands),
    ]
    .into_iter()
    .filter(|&(_, events)| events > 0)
    .map(|(category, events)| CategoryCount {
        category: category.to_string(),
        events,
    })
    .collect();
    s.events = s.by_category.iter().map(|c| c.events).sum();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_by_kind_and_category() {
        let placed = |stream, kind, end, words, instructions| Event::Placed {
            stream,
            seq: 0,
            kind,
            device: 0,
            start: 0,
            end,
            words,
            instructions,
            kernel: None,
        };
        let events = vec![
            placed(Some(0), CommandKind::Launch, 50, 0, 9),
            placed(Some(0), CommandKind::CopyIn, 16, 16, 0),
            placed(Some(0), CommandKind::EventWait, 0, 0, 0),
            placed(None, CommandKind::Launch, 30, 0, 5),
            Event::CacheLookup {
                kernel: "k".into(),
                tier: CacheTier::Compile,
                hit: false,
                decoded: true,
            },
            Event::PassRun {
                kernel: "k".into(),
                pass: "dce".into(),
                insts_before: 12,
                insts_after: 9,
                changed: true,
            },
            Event::Publish {
                stream: 0,
                device: 0,
                commands: 2,
                depth: 0,
                outstanding: 0,
                at: 50,
            },
            // No place on a timeline: counts for nothing.
            Event::Pause,
        ];
        let s = summarize(&events, 2);
        assert_eq!(s.dropped, 2);
        assert_eq!((s.kernel_launches, s.kernel_retires), (1, 1));
        assert_eq!(s.kernel_cycles, 50);
        assert_eq!(s.instructions, 9);
        assert_eq!((s.copies, s.copy_words, s.copy_cycles), (1, 16, 16));
        assert_eq!((s.sync_commands, s.graph_nodes), (1, 1));
        assert_eq!(s.compile_misses, 1);
        assert_eq!((s.pass_runs, s.passes_changed), (1, 1));
        assert_eq!(s.gauge_samples, 2);
        let cats: Vec<(&str, u64)> = s
            .by_category
            .iter()
            .map(|c| (c.category.as_str(), c.events))
            .collect();
        assert_eq!(
            cats,
            vec![
                ("cache", 1),
                ("compiler", 1),
                ("copy", 1),
                ("gauge", 2),
                ("graph", 1),
                ("kernel", 2),
                ("sync", 1)
            ]
        );
        assert_eq!(s.events, 9);
        // Round-trips through JSON for the harness.
        let json = serde_json::to_string(&s).unwrap();
        let back: TraceSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
