//! Shared by the integration tests: the golden-file check of the ones
//! that pin exporter output, and the per-stream order and cross-stream
//! overlap predicates of the ones that read the event ring. Each test
//! binary uses its own subset.

#![allow(dead_code)]

use simt_profile::Event;
use simt_runtime::{CommandKind, Runtime};
use std::path::Path;

/// Assert `actual` equals the committed `tests/golden/<name>` byte for
/// byte. The exporters are views of the recorded events, so a changed
/// byte is an exporter bug, not a schema change; after a deliberate
/// format change, regenerate with `BLESS=1 cargo test -p simt-runtime`.
pub fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    assert!(
        actual == want,
        "{name} differs from the committed golden file:\n--- golden\n{want}\n--- actual\n{actual}"
    );
}

/// One stream command's [`Event::Placed`]: where and when it completed.
/// Event resolutions occupy no engine time (`start == end`, the
/// stream's completion front at that point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub stream: usize,
    pub seq: u64,
    pub device: usize,
    pub kind: CommandKind,
    pub start: u64,
    pub end: u64,
}

impl Placement {
    /// Whether the two `[start, end)` engine windows intersect in
    /// virtual time.
    pub fn overlaps(&self, other: &Placement) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Every stream command `rt` has placed, in completion order, read off
/// its event ring (graph-replay nodes have no stream and are skipped).
/// The whole run must still be in the black-box window — a test that
/// records more sizes it with `RuntimeConfig::with_flight_capacity`.
pub fn placements(rt: &Runtime) -> Vec<Placement> {
    let dump = rt.flight().expect("the black box is on");
    assert!(
        dump.recorded <= dump.capacity,
        "{} events lapped a window of {}",
        dump.recorded,
        dump.capacity
    );
    dump.events
        .into_iter()
        .filter_map(|r| match r.event {
            Event::Placed {
                stream: Some(stream),
                seq,
                kind,
                device,
                start,
                end,
                ..
            } => Some(Placement {
                stream,
                seq,
                device,
                kind,
                start,
                end,
            }),
            _ => None,
        })
        .collect()
}

/// Per-stream completion ordering: within every stream, placements
/// appear with consecutive sequence numbers from 0.
pub fn per_stream_ordering_holds(placed: &[Placement]) -> bool {
    let mut next = std::collections::HashMap::new();
    placed.iter().all(|c| {
        let want = next.entry(c.stream).or_insert(0u64);
        let ok = c.seq == *want;
        *want += 1;
        ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(stream: usize, seq: u64, start: u64, end: u64) -> Placement {
        Placement {
            stream,
            seq,
            device: 0,
            kind: CommandKind::Launch,
            start,
            end,
        }
    }

    #[test]
    fn completion_overlap_is_window_intersection() {
        let rec = |start, end| placement(0, 0, start, end);
        assert!(rec(0, 10).overlaps(&rec(5, 15)));
        assert!(rec(5, 15).overlaps(&rec(0, 10)));
        assert!(!rec(0, 10).overlaps(&rec(10, 20)), "half-open windows");
    }

    #[test]
    fn ordering_check_catches_reorder() {
        let rec = |stream, seq| placement(stream, seq, 0, 0);
        let mut placed = vec![rec(0, 0), rec(1, 0), rec(0, 1), rec(1, 1)];
        assert!(per_stream_ordering_holds(&placed));
        placed.swap(2, 3);
        assert!(per_stream_ordering_holds(&placed));
        placed.swap(0, 2);
        assert!(!per_stream_ordering_holds(&placed));
    }
}
