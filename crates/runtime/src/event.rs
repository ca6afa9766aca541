//! Cross-stream synchronization points.
//!
//! An [`Event`] is recorded into one stream and waited on by others (or
//! by the host): a `record` completes once every command enqueued before
//! it in its stream has completed; a waiting stream will not start
//! commands enqueued after the `wait` until the event has signaled —
//! the CUDA event contract, on simulated devices.

use crate::stream::Slot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct EventInner {
    /// Set once signaled, to the modeled device clock at which the
    /// record completed (virtual time, in cycles).
    signaled: Slot<u64>,
    /// Set the moment a `record_event` is *enqueued*. A stream waiting
    /// on an event that was never recorded proceeds immediately (the
    /// CUDA `cudaStreamWaitEvent`-on-unrecorded-event no-op), instead of
    /// deadlocking the stream.
    recorded: AtomicBool,
    /// Capture tag: `(capture generation, node the record points at)`.
    /// Set when the event is recorded on a *capturing* stream — a wait
    /// on it from another capturing stream of the same session becomes
    /// a graph edge instead of a runtime synchronization.
    capture: Mutex<Option<(u64, Option<usize>)>>,
}

/// A one-shot cross-stream sync point. Cheap to clone; clones share
/// state.
#[derive(Debug, Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    /// A fresh, unsignaled event.
    pub fn new() -> Self {
        Event {
            inner: Arc::new(EventInner {
                signaled: Slot::new(),
                recorded: AtomicBool::new(false),
                capture: Mutex::new(None),
            }),
        }
    }

    /// Mark the event complete at modeled clock `vtime` (idempotent; the
    /// first signal's timestamp wins).
    pub(crate) fn signal(&self, vtime: u64) {
        self.inner.signaled.set(vtime);
    }

    /// Mark that a record of this event has been enqueued somewhere.
    pub(crate) fn mark_recorded(&self) {
        self.inner.recorded.store(true, Ordering::SeqCst);
    }

    /// Has a record of this event ever been enqueued?
    pub(crate) fn is_recorded(&self) -> bool {
        self.inner.recorded.load(Ordering::SeqCst)
    }

    /// Tag the event as recorded during graph capture: `node` is the
    /// captured node the record points at (`None` when the stream had
    /// captured nothing yet).
    pub(crate) fn set_capture_tag(&self, generation: u64, node: Option<usize>) {
        *self.inner.capture.lock().unwrap() = Some((generation, node));
    }

    /// The capture tag, if the event was recorded during a capture.
    pub(crate) fn capture_tag(&self) -> Option<(u64, Option<usize>)> {
        *self.inner.capture.lock().unwrap()
    }

    /// Has the event completed?
    pub fn is_signaled(&self) -> bool {
        self.signal_time().is_some()
    }

    /// Modeled device clock at which the event completed, if signaled.
    pub fn signal_time(&self) -> Option<u64> {
        self.inner.signaled.try_get()
    }

    /// Block the *host* until the event completes.
    pub fn wait(&self) {
        self.inner.signaled.wait();
    }
}

impl Default for Event {
    fn default() -> Self {
        Event::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_wakes_waiters() {
        let e = Event::new();
        assert!(!e.is_signaled());
        let e2 = e.clone();
        let t = std::thread::spawn(move || {
            e2.wait();
            true
        });
        e.signal(17);
        assert!(t.join().unwrap());
        assert!(e.is_signaled());
        assert_eq!(e.signal_time(), Some(17));
        e.signal(99); // idempotent: first timestamp wins
        assert_eq!(e.signal_time(), Some(17));
    }
}
