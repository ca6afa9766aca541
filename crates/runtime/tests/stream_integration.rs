//! Integration: a 2-device pool absorbing mixed-kernel traffic across
//! many streams, checked against single-core reference runs bit-exactly,
//! with per-stream ordering and cross-stream event semantics asserted —
//! plus the headline overlap result: 4-stream execution of a job list is
//! ≥ 1.5× faster (modeled wall-clock) than the same list on one stream.

use simt_kernels::workload::{int_vector, lowpass_taps, q15_matrix, q15_signal};
use simt_kernels::{iir, sobel, LaunchSpec};
use simt_runtime::{
    CommandKind, CopyHandle, Event, LaunchHandle, Runtime, RuntimeConfig, RuntimeError, Stream,
};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::Duration;

mod common;
use common::{per_stream_ordering_holds, placements};

/// A mixed bag of ≥ 32 kernels across every family, deterministic.
fn mixed_jobs() -> Vec<LaunchSpec> {
    let mut jobs = Vec::new();
    for round in 0..4u64 {
        let n = 256;
        let x = int_vector(n, 10 + round);
        let y = int_vector(n, 20 + round);
        jobs.push(LaunchSpec::saxpy(3 + round as i32, &x, &y));
        jobs.push(LaunchSpec::sat_add(&x, &y));
        jobs.push(LaunchSpec::dot(&x, &y));
        jobs.push(LaunchSpec::sum(&x));
        let taps = lowpass_taps(8);
        let sig = q15_signal(128 + 7, 30 + round);
        jobs.push(LaunchSpec::fir(&sig, &taps, 128));
        let a = q15_matrix(8, 8, 40 + round);
        let b = q15_matrix(8, 8, 50 + round);
        jobs.push(LaunchSpec::matmul(&a, &b, 8, 8, 8));
        jobs.push(LaunchSpec::iir(
            &q15_signal(16 * 8, 60 + round),
            16,
            8,
            iir::Biquad::lowpass(),
        ));
        jobs.push(LaunchSpec::scan(&int_vector(64, 70 + round)));
        jobs.push(LaunchSpec::sobel(&sobel::test_card(16, 8), 16, 8));
    }
    assert!(jobs.len() >= 32, "{} jobs", jobs.len());
    jobs
}

#[test]
fn mixed_kernels_across_streams_match_reference_bit_exactly() {
    // One full pump of the job list through a fresh pool. The pool is
    // *paused* for the enqueue burst, so every stream's full command
    // queue is visible when the workers start claiming — the backlog
    // that multi-command batches need is built deterministically
    // instead of hoping the OS schedules the enqueue ahead of the
    // drain (this used to be a retry loop).
    let rt = Runtime::new(RuntimeConfig::default());
    assert_eq!(rt.config().devices, 2);
    let streams: Vec<_> = (0..4).map(|_| rt.stream()).collect();

    // (c) the single-core reference runs, bit-exact oracles.
    let jobs: Vec<_> = mixed_jobs()
        .into_iter()
        .map(|spec| {
            let reference = spec.run_local().unwrap();
            assert_eq!(reference.output, spec.expected, "{}: oracle", spec.name);
            (spec, reference.stats)
        })
        .collect();

    rt.pause();
    let mut pending = Vec::new();
    for (i, (spec, ref_stats)) in jobs.into_iter().enumerate() {
        let s = &streams[i % streams.len()];
        // (a) the runtime path: launch + copy-out of the output
        let expected = spec.expected.clone();
        let (off, len) = (spec.out_off, spec.out_len);
        let name = spec.name.clone();
        let h = s.launch(spec);
        let out = s.copy_out(off, len);
        pending.push((name, expected, ref_stats, h, out));
    }
    rt.resume();
    rt.synchronize().unwrap();

    for (name, expected, ref_stats, h, out) in pending {
        let stats = h.wait().unwrap_or_else(|e| panic!("{name}: {e}"));
        // Same kernel, same inputs — identical cycle accounting too.
        assert_eq!(stats, ref_stats, "{name}: cycle accounting differs");
        assert_eq!(out.wait().unwrap(), expected, "{name}: results differ");
    }

    let stats = rt.stats();
    // (b) per-stream ordering: completions strictly follow enqueue
    // order within each stream.
    assert!(per_stream_ordering_holds(&placements(&rt)));
    assert_eq!(stats.launches(), 36);
    assert!(
        stats.devices.iter().all(|d| d.launches > 0),
        "both devices used"
    );
    // With the backlog in place before any claim, every stream's queue
    // alternates launch / copy-out, so each claim after a stream's
    // first takes a [copy-out, launch] pair: multi-command batches are
    // a certainty, not a load property.
    let total_batched: u64 = stats.devices.iter().map(|d| d.batched_commands).sum();
    let batches: u64 = stats.devices.iter().map(|d| d.batches).sum();
    assert!(
        total_batched > batches,
        "no multi-command batches ({total_batched} commands in {batches} batches)"
    );
    // And the batching enables build reuse: 36 launches over a handful
    // of processor configurations revisit warm per-device caches.
    assert!(
        stats.devices.iter().any(|d| d.cache_hits > 0),
        "no processor-cache reuse across {} launches",
        stats.launches()
    );
}

#[test]
fn event_waits_are_honored_across_devices() {
    let rt = Runtime::new(RuntimeConfig::default());
    let producer = rt.stream();
    let relay = rt.stream();
    let consumer = rt.stream();

    // producer: scan -> event A; relay waits A, computes, -> event B;
    // consumer waits B then runs. Completion order must respect A, B.
    let a = rt.event();
    let b = rt.event();
    producer.launch(LaunchSpec::scan(&int_vector(64, 1)));
    producer.record_event(&a);
    relay.wait_event(&a);
    relay.launch(LaunchSpec::sum(&int_vector(128, 2)));
    relay.record_event(&b);
    consumer.wait_event(&b);
    consumer.launch(LaunchSpec::dot(&int_vector(64, 3), &int_vector(64, 4)));
    rt.synchronize().unwrap();

    let stats = rt.stats();
    let placed = placements(&rt);
    assert!(per_stream_ordering_holds(&placed));
    let pos = |stream: usize, kind: CommandKind| {
        placed
            .iter()
            .position(|c| c.stream == stream && c.kind == kind)
            .unwrap()
    };
    // Each wait resolved only after its event's record.
    assert!(pos(1, CommandKind::EventWait) > pos(0, CommandKind::EventRecord));
    assert!(pos(2, CommandKind::EventWait) > pos(1, CommandKind::EventRecord));
    // And the virtual timeline agrees: B fired after A.
    assert!(b.signal_time().unwrap() > a.signal_time().unwrap());
    // The consumer's launch started (virtually) after B fired: its
    // stream's compute all happened after the wait resolved, so the
    // makespan covers the chain.
    assert!(stats.makespan_cycles >= b.signal_time().unwrap());
}

/// The headline: overlapped 4-stream execution on the 2-device pool vs
/// the same job list on a single stream, compared in modeled wall-clock
/// (virtual-time makespan at the pool's device clock — host-core-count
/// independent).
#[test]
fn four_streams_on_two_devices_beat_serial_by_1p5x() {
    let job_list = || {
        let mut jobs = Vec::new();
        for i in 0..16u64 {
            let x = int_vector(1024, i);
            let y = int_vector(1024, 100 + i);
            jobs.push(LaunchSpec::saxpy(7, &x, &y).detach_inputs());
        }
        jobs
    };

    let run = |streams: usize| {
        let rt = Runtime::new(RuntimeConfig::default()); // 2 devices
        let handles: Vec<_> = (0..streams).map(|_| rt.stream()).collect();
        let mut outs = Vec::new();
        for (i, (spec, inputs)) in job_list().into_iter().enumerate() {
            let s = &handles[i % streams];
            for (off, words) in &inputs {
                s.copy_in(*off, words);
            }
            let expected = spec.expected.clone();
            let (off, len) = (spec.out_off, spec.out_len);
            s.launch(spec);
            outs.push((expected, s.copy_out(off, len)));
        }
        rt.synchronize().unwrap();
        for (expected, out) in outs {
            assert_eq!(out.wait().unwrap(), expected);
        }
        rt.stats()
    };

    let serial = run(1);
    let overlapped = run(4);
    assert_eq!(serial.launches(), 16);
    assert_eq!(overlapped.launches(), 16);

    let speedup = serial.modeled_seconds() / overlapped.modeled_seconds();
    assert!(
        speedup >= 1.5,
        "modeled speedup {speedup:.2}x (serial {} clk vs overlapped {} clk)",
        serial.makespan_cycles,
        overlapped.makespan_cycles
    );
    // Overlap also shows up as pool occupancy: the serial run leaves one
    // device idle, the overlapped run keeps both busy.
    assert!(overlapped.modeled_occupancy() > serial.modeled_occupancy());
}

/// Everything one traffic generator enqueued, for the checks after the
/// run: per-kind command counts and every handle with its oracle.
#[derive(Default)]
struct Enqueued {
    copies: u64,
    launches: u64,
    events: u64,
    jobs: Vec<(String, Vec<u32>, LaunchHandle, CopyHandle)>,
}

/// xorshift64: the traffic mix is a pure function of the seed.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One generator thread's traffic over its own streams: copies,
/// launches (IR and hand-written), event records, waits on events some
/// stream of *either* generator has already recorded (so every wait
/// points back in enqueue time and the mix cannot deadlock itself),
/// stream fences, and — first generator only — pause/resume around a
/// burst of enqueues. At step `trip.0` it meets the main thread at the
/// barrier and holds there while the pool is shut down.
fn generate(
    rt: &Runtime,
    streams: &[Stream],
    seed: u64,
    steps: usize,
    may_pause: bool,
    events: &Mutex<Vec<Event>>,
    trip: Option<(usize, &Barrier)>,
) -> Enqueued {
    let mut rng = seed | 1;
    let mut out = Enqueued::default();
    let mut paused_for = 0usize;
    for step in 0..steps {
        if let Some((at, shutdown)) = trip {
            if step == at {
                shutdown.wait(); // the main thread shuts the pool down...
                shutdown.wait(); // ...and has done so
            }
        }
        let r = next(&mut rng);
        let s = &streams[(r >> 8) as usize % streams.len()];
        match r % 16 {
            0..=8 => {
                let n = [16usize, 64, 128][(r >> 16) as usize % 3];
                let x = int_vector(n, r >> 20);
                let y = int_vector(n, r >> 24);
                let spec = match (r >> 32) % 4 {
                    0 => LaunchSpec::saxpy_ir(3 + (r >> 40) as i32 % 5, &x, &y),
                    1 => LaunchSpec::sum_ir(&x),
                    2 => LaunchSpec::dot_ir(&x, &y),
                    _ => LaunchSpec::sat_add(&x, &y),
                };
                let (spec, inputs) = spec.detach_inputs();
                for (off, words) in &inputs {
                    s.copy_in(*off, words);
                }
                let (name, expected) = (spec.name.clone(), spec.expected.clone());
                let (off, len) = (spec.out_off, spec.out_len);
                let h = s.launch(spec);
                let c = s.copy_out(off, len);
                out.copies += inputs.len() as u64 + 1;
                out.launches += 1;
                out.jobs.push((name, expected, h, c));
            }
            9 | 10 => {
                let e = rt.event();
                s.record_event(&e);
                events.lock().unwrap().push(e);
                out.events += 1;
            }
            11 | 12 => {
                let e = {
                    let pool = events.lock().unwrap();
                    (!pool.is_empty()).then(|| pool[(r >> 16) as usize % pool.len()].clone())
                };
                if let Some(e) = e {
                    s.wait_event(&e);
                    out.events += 1;
                }
            }
            13 => {
                // A fence: one event record, and the host blocks on it
                // — unless this generator holds the pool paused.
                if paused_for == 0 {
                    s.synchronize();
                    out.events += 1;
                }
            }
            _ => {
                if may_pause && paused_for == 0 {
                    rt.pause();
                    paused_for = 1 + (r >> 16) as usize % 6;
                    continue;
                }
            }
        }
        if paused_for > 0 {
            paused_for -= 1;
            if paused_for == 0 {
                rt.resume();
            }
        }
    }
    if paused_for > 0 {
        rt.resume();
    }
    out
}

/// Run `scenario` on a thread of its own and fail if it has not
/// finished within a minute: a lost wake shows as a hang, and a hang
/// must fail the suite rather than stall it.
fn under_watchdog(what: String, scenario: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        scenario();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => t.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(t.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: still running after 60 s"),
    }
}

/// 8 streams fed by two generator threads, on `devices` workers; with
/// `shutdown_mid_flight` the pool is shut down while both generators
/// are still enqueueing.
fn mixed_traffic(devices: usize, seed: u64, shutdown_mid_flight: bool) {
    const STEPS: usize = 400;
    // A step is at most five commands (three copies around a launch, or
    // one event) and a pause or resume; a command is at most an
    // enqueue, a batch, a placement, a publish and two cache lookups.
    // The window holds all of it, so the ordering check below sees
    // every stream from its first command.
    let window = 2 * STEPS * (5 * 6 + 2);
    let cfg = RuntimeConfig::with_devices(devices).with_flight_capacity(window);
    let rt = Arc::new(Runtime::new(cfg));
    let streams: Vec<Stream> = (0..8).map(|_| rt.stream()).collect();
    let events = Arc::new(Mutex::new(Vec::new()));
    let shutdown = Arc::new(Barrier::new(2));
    let generators: Vec<_> = (0..2usize)
        .map(|g| {
            let rt = Arc::clone(&rt);
            let events = Arc::clone(&events);
            let mine = streams[4 * g..4 * g + 4].to_vec();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let trip = (shutdown_mid_flight && g == 1).then_some((STEPS / 2, &*shutdown));
                generate(
                    &rt,
                    &mine,
                    seed.wrapping_mul(2).wrapping_add(g as u64 + 1),
                    STEPS,
                    g == 0 && !shutdown_mid_flight,
                    &events,
                    trip,
                )
            })
        })
        .collect();
    if shutdown_mid_flight {
        shutdown.wait();
        rt.shutdown();
        shutdown.wait();
    }
    let enqueued: Vec<Enqueued> = generators.into_iter().map(|g| g.join().unwrap()).collect();
    let sync = rt.synchronize();

    let (mut ok, mut refused) = (0u64, 0u64);
    for (name, expected, h, c) in enqueued.iter().flat_map(|e| &e.jobs) {
        // Every handle resolves (a lost completion would hang here).
        match (h.wait(), c.wait()) {
            (Ok(_), Ok(words)) => {
                assert_eq!(&words, expected, "{name}: output differs");
                ok += 1;
            }
            (launch, copy) => {
                assert!(shutdown_mid_flight, "{name}: {launch:?} / {copy:?}");
                for e in [launch.err(), copy.err()].into_iter().flatten() {
                    assert_eq!(e, RuntimeError::Shutdown, "{name}");
                }
                refused += 1;
            }
        }
    }
    let stats = rt.stats();
    let sum = |f: fn(&Enqueued) -> u64| enqueued.iter().map(f).sum::<u64>();
    let (copies, launches, events) = (sum(|e| e.copies), sum(|e| e.launches), sum(|e| e.events));
    // Exactly what was enqueued was accounted for, whichever way it
    // ended; what executed was counted as executed.
    assert_eq!(stats.commands(), copies + launches + events);
    if shutdown_mid_flight {
        // (No ordering claim here: the shutdown drain fails a stream's
        // backlog while its last batch may still be in flight.)
        assert!(refused > 0, "shutdown came after the last enqueue");
        assert!(stats.launches() >= ok && stats.launches() <= launches);
    } else {
        sync.unwrap();
        assert!(per_stream_ordering_holds(&placements(&rt)));
        assert_eq!(refused, 0);
        assert_eq!(stats.launches(), launches);
        assert_eq!(stats.streams.iter().map(|s| s.copies).sum::<u64>(), copies);
        let device_side =
            |f: fn(&simt_runtime::DeviceStats) -> u64| -> u64 { stats.devices.iter().map(f).sum() };
        assert_eq!(device_side(|d| d.launches), launches);
        assert_eq!(device_side(|d| d.batched_commands), copies + launches);
        assert!(device_side(|d| d.idle_wakeups) <= device_side(|d| d.wakeups));
    }
}

#[test]
fn every_handle_resolves_under_mixed_traffic() {
    for devices in [1, 2, 4] {
        for seed in [1u64, 2] {
            under_watchdog(format!("{devices} devices, seed {seed}"), move || {
                mixed_traffic(devices, seed, false)
            });
        }
    }
}

#[test]
fn every_handle_resolves_when_shut_down_mid_flight() {
    for devices in [1, 2, 4] {
        under_watchdog(format!("{devices} devices, shutdown"), move || {
            mixed_traffic(devices, 3, true)
        });
    }
}

/// The wake layer's budget: a serial `launch → wait` ping-pong on one
/// stream of a 4-device pool costs at most one worker wake-up per
/// command (it used to wake all four per enqueue, and again per
/// publish).
#[test]
fn serial_round_trips_wake_one_worker_per_command() {
    const ROUNDS: u64 = 200;
    under_watchdog("serial round trips".into(), || {
        let rt = Runtime::new(RuntimeConfig::with_devices(4));
        let s = rt.stream();
        let x = int_vector(64, 5);
        let y = int_vector(64, 6);
        for _ in 0..ROUNDS {
            s.launch(LaunchSpec::saxpy_ir(3, &x, &y)).wait().unwrap();
        }
        let stats = rt.stats();
        assert_eq!(stats.commands(), ROUNDS);
        let wakeups: u64 = stats.devices.iter().map(|d| d.wakeups).sum();
        assert!(
            (1..=ROUNDS + 4).contains(&wakeups),
            "{wakeups} wake-ups for {ROUNDS} commands on 4 devices"
        );
    });
}
