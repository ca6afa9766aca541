//! Streams: ordered command queues, the unit of host→runtime work
//! submission.
//!
//! Commands within a stream execute in enqueue order; commands in
//! different streams are unordered unless [`Event`]s impose an order.
//! Every stream owns a device buffer; copies move host data in and out
//! of that buffer at modeled link cost, and launches read/write it.
//! Streams are not device-affine: each command is placed on the
//! least-loaded device at dispatch.

use crate::event::Event;
use crate::scheduler::Shared;
use crate::stats::CommandKind;
use crate::RuntimeError;
use simt_core::ExecStats;
use simt_kernels::LaunchSpec;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A write-once completion cell shared between a handle (or an
/// [`Event`]'s clones) and the worker that resolves it. The first `set`
/// wins.
///
/// `set` runs under the scheduler lock (twice per job, plus once per
/// event signal) and a condvar notify is a system call whether or not
/// anyone listens, so the cell counts its waiters under its own mutex
/// and `set` notifies — after the unlock — only when the count was
/// non-zero. No wake-up is lost: a waiter raises the count under the
/// mutex before `Condvar::wait` releases it, so a `set` that read zero
/// stored its value before that waiter looked.
///
/// A handle's `wait` consumes it through [`Slot::take`], which moves the
/// result out when the handle held the last reference — an output
/// `Vec` then reaches the caller without a copy, and the cell is freed
/// inside the library call rather than by the caller afterwards.
/// [`Event`]s and the `try_*` polls read through `&self` and clone.
#[derive(Debug)]
pub(crate) struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cond: Condvar,
}

#[derive(Debug)]
struct SlotState<T> {
    value: Option<T>,
    /// Threads inside [`Slot::wait`]'s loop.
    waiters: usize,
}

impl<T: Clone> Slot<T> {
    pub(crate) fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState {
                value: None,
                waiters: 0,
            }),
            cond: Condvar::new(),
        }
    }

    pub(crate) fn set(&self, v: T) {
        let waiters = {
            let mut g = self.state.lock().unwrap();
            g.value.get_or_insert(v);
            g.waiters
        };
        if waiters > 0 {
            self.cond.notify_all();
        }
    }

    pub(crate) fn wait(&self) -> T {
        self.block()
            .value
            .clone()
            .expect("block returned once the value was set")
    }

    /// Sleep until the value is set; returns the cell's lock.
    fn block(&self) -> MutexGuard<'_, SlotState<T>> {
        let mut g = self.state.lock().unwrap();
        if g.value.is_none() {
            g.waiters += 1;
            while g.value.is_none() {
                g = self.cond.wait(g).unwrap();
            }
            g.waiters -= 1;
        }
        g
    }

    /// [`Slot::wait`] that moves the value out when `this` is the last
    /// reference to the cell, and clones it only while another holder
    /// (a cloned handle, or the worker before it drops its command)
    /// remains.
    pub(crate) fn take(this: Arc<Self>) -> T {
        drop(this.block());
        match Arc::try_unwrap(this) {
            Ok(cell) => cell.state.into_inner().unwrap().value,
            Err(shared) => shared.state.lock().unwrap().value.clone(),
        }
        .expect("block returned once the value was set")
    }

    pub(crate) fn try_get(&self) -> Option<T> {
        self.state.lock().unwrap().value.clone()
    }
}

/// Handle to an asynchronous kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchHandle {
    pub(crate) slot: Arc<Slot<Result<ExecStats, RuntimeError>>>,
}

impl LaunchHandle {
    /// Block until the launch completes; returns its execution stats.
    /// Consumes the handle, so the result moves out of its cell unless a
    /// clone of the handle is still alive.
    pub fn wait(self) -> Result<ExecStats, RuntimeError> {
        Slot::take(self.slot)
    }

    /// Non-blocking poll.
    pub fn try_stats(&self) -> Option<Result<ExecStats, RuntimeError>> {
        self.slot.try_get()
    }
}

/// Handle to an asynchronous device→host copy.
#[derive(Debug, Clone)]
pub struct CopyHandle {
    pub(crate) slot: Arc<Slot<Result<Vec<u32>, RuntimeError>>>,
}

impl CopyHandle {
    /// Block until the copy completes; returns the words read.
    /// Consumes the handle, so the words move out of their cell (no copy
    /// of the `Vec`) unless a clone of the handle is still alive.
    pub fn wait(self) -> Result<Vec<u32>, RuntimeError> {
        Slot::take(self.slot)
    }

    /// Non-blocking poll.
    pub fn try_data(&self) -> Option<Result<Vec<u32>, RuntimeError>> {
        self.slot.try_get()
    }
}

/// One queued stream command.
pub(crate) enum Command {
    /// Host→device copy into the stream buffer.
    CopyIn {
        /// Destination offset in words.
        dst: usize,
        /// Payload.
        data: Vec<u32>,
    },
    /// Device→host copy out of the stream buffer.
    CopyOut {
        /// Source offset in words.
        src: usize,
        /// Length in words.
        len: usize,
        /// Completion cell.
        sink: Arc<Slot<Result<Vec<u32>, RuntimeError>>>,
    },
    /// Kernel launch.
    Launch {
        /// The kernel to run.
        spec: Box<LaunchSpec>,
        /// Completion cell.
        sink: Arc<Slot<Result<ExecStats, RuntimeError>>>,
    },
    /// Signal an event once all prior commands of the stream completed.
    RecordEvent(Event),
    /// Hold the stream until the event signals.
    WaitEvent(Event),
}

impl Command {
    pub(crate) fn kind(&self) -> CommandKind {
        match self {
            Command::CopyIn { .. } => CommandKind::CopyIn,
            Command::CopyOut { .. } => CommandKind::CopyOut,
            Command::Launch { .. } => CommandKind::Launch,
            Command::RecordEvent(_) => CommandKind::EventRecord,
            Command::WaitEvent(_) => CommandKind::EventWait,
        }
    }

    /// Resolve the command's completion cell with an error (stream
    /// poisoning / shutdown paths). Events are signaled so dependent
    /// streams do not deadlock; the error is carried by the sinks.
    pub(crate) fn resolve_err(&self, e: &RuntimeError, vtime: u64) {
        match self {
            Command::CopyOut { sink, .. } => sink.set(Err(e.clone())),
            Command::Launch { sink, .. } => sink.set(Err(e.clone())),
            Command::RecordEvent(ev) => ev.signal(vtime),
            _ => {}
        }
    }
}

/// An ordered command queue over the device pool. Streams are not
/// bound to a device: every command is placed on the least-loaded
/// device at dispatch, and per-stream ordering is preserved by the
/// stream's completion chain.
#[derive(Clone)]
pub struct Stream {
    pub(crate) id: usize,
    pub(crate) shared: Arc<Shared>,
}

impl Stream {
    /// Stream id within the runtime.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueue a host→device copy of `data` to word offset `dst` of the
    /// stream buffer.
    pub fn copy_in(&self, dst: usize, data: &[u32]) {
        self.shared.enqueue(
            self.id,
            Command::CopyIn {
                dst,
                data: data.to_vec(),
            },
        );
    }

    /// Enqueue an asynchronous kernel launch.
    pub fn launch(&self, spec: LaunchSpec) -> LaunchHandle {
        let slot = Arc::new(Slot::new());
        self.shared.enqueue(
            self.id,
            Command::Launch {
                spec: Box::new(spec),
                sink: slot.clone(),
            },
        );
        LaunchHandle { slot }
    }

    /// Enqueue a device→host copy of `len` words from offset `src`.
    pub fn copy_out(&self, src: usize, len: usize) -> CopyHandle {
        let slot = Arc::new(Slot::new());
        self.shared.enqueue(
            self.id,
            Command::CopyOut {
                src,
                len,
                sink: slot.clone(),
            },
        );
        CopyHandle { slot }
    }

    /// Enqueue an event record: `event` signals once everything enqueued
    /// on this stream so far has completed. (On a capturing stream the
    /// record becomes a graph-edge marker instead.)
    pub fn record_event(&self, event: &Event) {
        self.shared
            .enqueue(self.id, Command::RecordEvent(event.clone()));
    }

    /// Enqueue an event wait: commands enqueued on this stream after
    /// this call do not start until `event` signals. Waiting on an event
    /// that was never recorded anywhere is a no-op (the CUDA contract),
    /// not a deadlock.
    pub fn wait_event(&self, event: &Event) {
        self.shared
            .enqueue(self.id, Command::WaitEvent(event.clone()));
    }

    /// Block the host until everything enqueued on this stream so far
    /// has completed. On a *capturing* stream this returns immediately:
    /// captured commands never execute, so there is nothing to wait for
    /// (and the fence itself would be captured — waiting on it would
    /// deadlock the host).
    pub fn synchronize(&self) {
        if self.shared.is_capturing(self.id) {
            return;
        }
        let fence = Event::new();
        self.record_event(&fence);
        fence.wait();
    }

    /// Clear the stream's sticky error (CUDA's destroy-and-recreate
    /// recovery, folded into a reset): after a terminal failure every
    /// queued and subsequent command resolves with
    /// [`RuntimeError::StreamPoisoned`] until this is called. The failed
    /// commands stay failed — only new work is accepted again.
    pub fn reset(&self) {
        self.shared.reset_stream(self.id);
    }

    /// Begin capturing this stream: commands enqueued from now on are
    /// recorded into an execution graph instead of executing (their
    /// handles resolve with [`RuntimeError::Captured`]). The first
    /// capturing stream owns the session; other streams may join with
    /// their own `begin_capture` and order their nodes against it
    /// through events recorded/waited during the capture.
    pub fn begin_capture(&self) -> Result<(), RuntimeError> {
        self.shared.begin_capture(self.id)
    }

    /// Finish the capture this stream began and return the recorded
    /// DAG, ready to fuse (`simt_graph::fuse`), instantiate and replay.
    /// Typed errors: no capture in progress, ending on a non-origin
    /// stream, or an empty capture.
    pub fn end_capture(&self) -> Result<simt_graph::ExecGraph, RuntimeError> {
        self.shared.end_capture(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::Slot;
    use std::sync::{Arc, Barrier};

    // ---- the completion-cell contract --------------------------------
    //
    // What `LaunchHandle`, `CopyHandle` and `Event` rely on, whatever
    // the cell does to wake (or not wake) anybody.

    #[test]
    fn a_value_set_before_the_wait_is_returned_at_once() {
        let slot = Slot::new();
        assert_eq!(slot.try_get(), None);
        slot.set(7u64);
        assert_eq!(slot.try_get(), Some(7));
        assert_eq!(slot.wait(), 7);
        assert_eq!(slot.wait(), 7, "a cell can be read any number of times");
    }

    #[test]
    fn take_moves_the_value_out_of_the_last_holder_and_clones_otherwise() {
        let slot = Arc::new(Slot::new());
        slot.set(vec![1u32, 2, 3]);
        let kept = Arc::clone(&slot);
        assert_eq!(Slot::take(Arc::clone(&slot)), [1, 2, 3]);
        assert_eq!(kept.try_get().as_deref(), Some(&[1, 2, 3][..]));
        drop(kept);
        let words = slot.try_get().unwrap();
        let ptr = slot.state.lock().unwrap().value.as_ref().unwrap().as_ptr();
        let taken = Slot::take(slot);
        assert_eq!(taken, words);
        assert_eq!(
            taken.as_ptr(),
            ptr,
            "the last holder's take moves, not copies"
        );
    }

    #[test]
    fn one_set_releases_every_waiter() {
        const WAITERS: usize = 8;
        let slot = Arc::new(Slot::new());
        let ready = Arc::new(Barrier::new(WAITERS + 1));
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let (slot, ready) = (Arc::clone(&slot), Arc::clone(&ready));
                std::thread::spawn(move || {
                    ready.wait();
                    slot.wait()
                })
            })
            .collect();
        // Every waiter is at least on its way into `wait`; whether it
        // got there before or after the `set`, it must come back.
        ready.wait();
        slot.set(41u64);
        for w in waiters {
            assert_eq!(w.join().unwrap(), 41);
        }
    }

    #[test]
    fn the_second_set_loses_and_still_returns() {
        let slot = Slot::new();
        slot.set(1u64);
        slot.set(2);
        assert_eq!(slot.try_get(), Some(1));
        assert_eq!(slot.wait(), 1);
    }

    #[test]
    fn a_long_hand_off_between_two_threads_finishes() {
        // Thread A sets cell i and waits on cell i of the other lane;
        // thread B does the mirror image. Each of the 2 × 10 000 waits
        // races its `set`: one lost wake-up and the test never ends
        // (CI runs it under a timeout).
        const CELLS: usize = 10_000;
        let lane =
            || -> Arc<Vec<Slot<usize>>> { Arc::new((0..CELLS).map(|_| Slot::new()).collect()) };
        let (ping, pong) = (lane(), lane());
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || {
                for i in 0..CELLS {
                    let v = ping[i].wait();
                    pong[i].set(v + 1);
                }
            })
        };
        for i in 0..CELLS {
            ping[i].set(i);
            assert_eq!(pong[i].wait(), i + 1);
        }
        echo.join().unwrap();
    }
}
