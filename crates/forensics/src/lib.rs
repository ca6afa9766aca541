//! Forensics for the SIMT runtime: deterministic postmortem bundles and
//! the machine-readable regression-attribution report emitted by
//! `tables --check`.
//!
//! The black box of the scheduler is the runtime's always-on
//! [`EventRing`]: the pool's decisions — enqueues, batch formation,
//! device placements, pause/resume, compile/decode-cache outcomes,
//! launch failures, health transitions — are recorded whether or not
//! the opt-in profiler is. When something goes wrong (a
//! [`HealthFinding`](simt_metrics::HealthFinding) fires, a launch
//! errors, or the caller asks), the runtime folds the ring's newest-N
//! window ([`FlightDump`]) together with a full metrics snapshot into a
//! [`PostmortemReport`] that explains *where* and *why*, not just
//! *that*.
//!
//! Everything in this crate is modeled-cycle / sequence-number based —
//! no wall-clock values appear in any serialized artifact, so reports
//! of a single-worker run over a pre-built backlog are byte-identical
//! across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use simt_profile::{EventRing, Record};

pub mod postmortem;
pub mod report;

pub use postmortem::{
    gauge_timelines, GaugePoint, GaugeTimeline, KernelHotspots, PcHotspot, PostmortemReport,
    POSTMORTEM_SCHEMA_VERSION,
};
pub use report::{
    CheckReport, LeafDelta, NodeSpan, PassDelta, ShapeProfile, WorkloadAttribution,
    CHECK_REPORT_SCHEMA_VERSION,
};

/// Serializable black-box window of an [`EventRing`]: its newest
/// records plus how much was recorded overall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Total events ever recorded (≥ `events.len()`).
    pub recorded: u64,
    /// Window size in records.
    pub capacity: u64,
    /// Surviving events, ascending by `seq`.
    pub events: Vec<Record>,
}

impl FlightDump {
    /// The newest `capacity` records of `ring`. A runtime without a
    /// black box (`None`, or a window of zero) dumps empty.
    pub fn capture(ring: Option<&EventRing>, capacity: usize) -> Self {
        let ring = ring.filter(|_| capacity > 0);
        FlightDump {
            recorded: ring.map_or(0, EventRing::recorded),
            capacity: capacity as u64,
            events: ring.map_or_else(Vec::new, |r| r.last(capacity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt_profile::Event;

    #[test]
    fn capture_is_the_newest_window_and_round_trips() {
        let mut ring = EventRing::new(8, false);
        for device in 0..6 {
            ring.record(Event::DeviceReset { device });
        }
        let dump = FlightDump::capture(Some(&ring), 4);
        assert_eq!((dump.recorded, dump.capacity), (6, 4));
        let seqs: Vec<u64> = dump.events.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        let back = FlightDump::from_value(&dump.to_value()).expect("round trip");
        assert_eq!(back, dump);
    }

    #[test]
    fn no_ring_or_no_window_dumps_empty() {
        let mut ring = EventRing::new(8, false);
        ring.record(Event::Pause);
        for dump in [
            FlightDump::capture(None, 4),
            FlightDump::capture(Some(&ring), 0),
        ] {
            assert_eq!(dump.recorded, 0);
            assert!(dump.events.is_empty());
        }
    }
}
