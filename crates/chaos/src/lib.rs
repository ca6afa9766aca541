//! # simt-chaos — deterministic fault injection and recovery policy
//!
//! Production accelerator pools treat faults as the normal case:
//! transient launch failures, wedged kernels, flaky copy engines and
//! outright dead devices all have to be survived, not aborted on. This
//! crate gives the `simt-runtime` scheduler that posture in a way that
//! stays **testable**: every fault is decided by a pure hash over the
//! fault-plan seed and the command's *stable identity* (stream id,
//! per-stream sequence number, attempt number), never by wall-clock,
//! thread interleaving or shared-RNG draw order. The same
//! [`ChaosConfig`] therefore injects the same faults at the same
//! commands on every run — recovery is differential-testable against a
//! fault-free oracle and pinned in CI like any other artifact.
//!
//! The vocabulary:
//!
//! * [`ChaosConfig`] — seed + per-family rates, installed via
//!   `RuntimeConfig::with_chaos`;
//! * [`FaultPlan`] — the compiled decision oracle the scheduler
//!   consults per command attempt;
//! * [`FaultKind`] — the four injected fault families;
//! * [`RecoveryConfig`] — watchdog budget, bounded retries with
//!   modeled exponential backoff, and the per-device fault budget that
//!   drives [`DeviceHealth`] transitions
//!   (`Healthy → Degraded → Quarantined`).
//!
//! The scheduler models injected faults as *dispatch* failures: the
//! plan also picks the device the faulted attempt is blamed on
//! ([`FaultPlan::decide`] returns a [`PlannedFault`] carrying it), so
//! per-device fault accounting and quarantine timing are as
//! deterministic as the injections themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The injected fault families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The launch was dropped on its way to the device (recoverable by
    /// a plain retry).
    TransientLaunch,
    /// The kernel wedged on the device; the watchdog kills it after the
    /// configured modeled-cycle budget and the attempt resolves as a
    /// timeout.
    HungKernel,
    /// The copy engine corrupted / dropped the transfer.
    CopyFault,
    /// The blamed device is failing *every* command handed to it (a
    /// sticky whole-device failure — the quarantine driver).
    DeviceFailure,
}

impl FaultKind {
    /// Stable label used for metrics (`faults_injected_total{family}`)
    /// and flight-recorder events.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::TransientLaunch => "transient_launch",
            FaultKind::HungKernel => "hung_kernel",
            FaultKind::CopyFault => "copy_fault",
            FaultKind::DeviceFailure => "device_failure",
        }
    }
}

/// Per-device health, driven by the scheduler's fault tracker against
/// [`RecoveryConfig::degrade_after`] / [`RecoveryConfig::quarantine_after`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Inside the fault budget; full placement member.
    Healthy,
    /// Accumulating faults; still placed on, but one step from the
    /// door.
    Degraded,
    /// Over the fault budget: excluded from stream placement and graph
    /// replay until `Runtime::reset_device` readmits it.
    Quarantined,
}

impl DeviceHealth {
    /// Numeric severity for gauges: 0 healthy, 1 degraded, 2
    /// quarantined.
    pub fn severity(&self) -> u64 {
        match self {
            DeviceHealth::Healthy => 0,
            DeviceHealth::Degraded => 1,
            DeviceHealth::Quarantined => 2,
        }
    }
}

/// A sticky whole-device failure: from per-stream sequence number
/// `from_seq` on, every launch whose pseudo-dispatch lands on `device`
/// fails with [`FaultKind::DeviceFailure`] — until the device crosses
/// its fault budget and is quarantined (at which point it stops
/// receiving dispatches), or an operator `reset_device` readmits it
/// (modeling a replaced part: the sticky fault is retired with it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StickyDevice {
    /// The failing device.
    pub device: usize,
    /// First per-stream sequence number the failure applies to.
    pub from_seq: u64,
}

/// Seeded fault-injection configuration. Rates are per command
/// *attempt* (a retried command redraws), in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability a launch attempt fails transiently.
    pub transient_launch_rate: f64,
    /// Probability a launch attempt hangs (watchdog timeout).
    pub hung_kernel_rate: f64,
    /// Probability a copy attempt hits a copy-engine fault.
    pub copy_fault_rate: f64,
    /// Optional sticky whole-device failure.
    pub sticky: Option<StickyDevice>,
}

impl ChaosConfig {
    /// A plan seeded with `seed` and all rates zero.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            transient_launch_rate: 0.0,
            hung_kernel_rate: 0.0,
            copy_fault_rate: 0.0,
            sticky: None,
        }
    }

    /// Set the transient launch-failure rate.
    pub fn with_transient_launch_rate(mut self, rate: f64) -> Self {
        self.transient_launch_rate = rate;
        self
    }

    /// Set the hung-kernel rate.
    pub fn with_hung_kernel_rate(mut self, rate: f64) -> Self {
        self.hung_kernel_rate = rate;
        self
    }

    /// Set the copy-engine fault rate.
    pub fn with_copy_fault_rate(mut self, rate: f64) -> Self {
        self.copy_fault_rate = rate;
        self
    }

    /// Install a sticky whole-device failure on `device`, active from
    /// per-stream sequence number `from_seq`.
    pub fn with_sticky_device(mut self, device: usize, from_seq: u64) -> Self {
        self.sticky = Some(StickyDevice { device, from_seq });
        self
    }
}

/// Recovery policy: the watchdog budget, the bounded-retry/backoff
/// schedule, and the per-device fault budget. Lives on
/// `RuntimeConfig` with defaults that change nothing for fault-free
/// workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Modeled-cycle budget the watchdog grants every launch; overruns
    /// (real or injected hangs) resolve as typed timeouts. The default
    /// (`1 << 32` cycles, ~5 s at the paper's clock) is far above any
    /// honest kernel in the zoo.
    pub watchdog_cycle_budget: u64,
    /// Total attempts per command, the first included. `1` disables
    /// retries.
    pub max_attempts: u32,
    /// Backoff charged to the stream's virtual timeline before retry
    /// `n` (1-based): `base << (n - 1)`, capped.
    pub backoff_base_cycles: u64,
    /// Upper bound on a single backoff.
    pub backoff_cap_cycles: u64,
    /// Faults a device accumulates before it is marked
    /// [`DeviceHealth::Degraded`].
    pub degrade_after: u64,
    /// Faults a device accumulates before it is quarantined (the fault
    /// budget).
    pub quarantine_after: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            watchdog_cycle_budget: 1 << 32,
            max_attempts: 4,
            backoff_base_cycles: 64,
            backoff_cap_cycles: 1 << 20,
            degrade_after: 2,
            quarantine_after: 5,
        }
    }
}

impl RecoveryConfig {
    /// Modeled backoff cycles charged before retry `attempt` (1-based:
    /// the first retry is attempt 1). Exponential, capped.
    pub fn backoff_cycles(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_base_cycles
            .saturating_shl(shift)
            .min(self.backoff_cap_cycles)
    }
}

/// A fault the plan decided to inject into one command attempt: the
/// family plus the device the attempt is blamed on (the pseudo-dispatch
/// target — see the crate docs for why blame is plan-derived rather
/// than taken from the executing worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// Fault family.
    pub kind: FaultKind,
    /// Device the faulted attempt is charged to.
    pub device: usize,
}

/// Domain-separation salts for the per-family draws.
const SALT_BLAME: u64 = 0x1;
const SALT_TRANSIENT: u64 = 0x2;
const SALT_HUNG: u64 = 0x3;
const SALT_COPY: u64 = 0x4;

/// SplitMix64 finalizer: the bit mixer behind every fault decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The compiled decision oracle: rates fixed to integer thresholds,
/// consulted by the scheduler once per command attempt. Pure — two
/// plans from the same config answer identically forever.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    /// Per-family thresholds against a 32-bit draw.
    transient: u64,
    hung: u64,
    copy: u64,
    sticky: Option<StickyDevice>,
}

/// Convert a `[0, 1]` rate into a threshold for a 32-bit uniform draw.
fn threshold(rate: f64) -> u64 {
    (rate.clamp(0.0, 1.0) * 4_294_967_296.0) as u64
}

impl FaultPlan {
    /// Compile `cfg` into a decision oracle.
    pub fn new(cfg: &ChaosConfig) -> Self {
        FaultPlan {
            seed: cfg.seed,
            transient: threshold(cfg.transient_launch_rate),
            hung: threshold(cfg.hung_kernel_rate),
            copy: threshold(cfg.copy_fault_rate),
            sticky: cfg.sticky,
        }
    }

    /// The configured sticky device failure, if any.
    pub fn sticky(&self) -> Option<&StickyDevice> {
        self.sticky.as_ref()
    }

    /// One deterministic 64-bit draw for `(stream, seq, attempt, salt)`.
    fn draw(&self, stream: u64, seq: u64, attempt: u64, salt: u64) -> u64 {
        let mut h = mix(self.seed ^ mix(salt));
        h = mix(h ^ stream);
        h = mix(h ^ seq);
        mix(h ^ attempt)
    }

    /// Does the `(stream, seq, attempt)` draw for `salt` land under
    /// `threshold`?
    fn hit(&self, stream: u64, seq: u64, attempt: u64, salt: u64, threshold: u64) -> bool {
        (self.draw(stream, seq, attempt, salt) >> 32) < threshold
    }

    /// The pseudo-dispatch device an attempt is blamed on: a
    /// deterministic pick over the pool, excluding `avoid` (the device
    /// the previous attempt failed on) when an alternative exists.
    pub fn blame(
        &self,
        devices: usize,
        stream: u64,
        seq: u64,
        attempt: u64,
        avoid: Option<usize>,
    ) -> usize {
        let h = self.draw(stream, seq, attempt, SALT_BLAME);
        match avoid {
            Some(a) if devices > 1 && a < devices => {
                let k = (h % (devices as u64 - 1)) as usize;
                if k >= a {
                    k + 1
                } else {
                    k
                }
            }
            _ => (h % devices.max(1) as u64) as usize,
        }
    }

    /// Decide the fate of one command attempt. `is_copy` selects the
    /// copy-engine family; `avoid` is the device the previous attempt
    /// of this command was blamed on (retries fail over); and
    /// `sticky_active` tells the plan whether the configured sticky
    /// device is still in the placement pool (a quarantined or reset
    /// device receives no dispatches, so it stops faulting them).
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        stream: u64,
        seq: u64,
        attempt: u64,
        is_copy: bool,
        devices: usize,
        avoid: Option<usize>,
        sticky_active: bool,
    ) -> Option<PlannedFault> {
        let device = self.blame(devices, stream, seq, attempt, avoid);
        if is_copy {
            return self
                .hit(stream, seq, attempt, SALT_COPY, self.copy)
                .then_some(PlannedFault {
                    kind: FaultKind::CopyFault,
                    device,
                });
        }
        if sticky_active {
            if let Some(s) = &self.sticky {
                if device == s.device && seq >= s.from_seq {
                    return Some(PlannedFault {
                        kind: FaultKind::DeviceFailure,
                        device,
                    });
                }
            }
        }
        if self.hit(stream, seq, attempt, SALT_TRANSIENT, self.transient) {
            return Some(PlannedFault {
                kind: FaultKind::TransientLaunch,
                device,
            });
        }
        if self.hit(stream, seq, attempt, SALT_HUNG, self.hung) {
            return Some(PlannedFault {
                kind: FaultKind::HungKernel,
                device,
            });
        }
        None
    }
}

/// `saturating_shl` does not exist on u64; local helper with shift
/// clamping semantics (shift ≥ 64 saturates toward the cap by
/// overflowing to max).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(
            &ChaosConfig::new(seed)
                .with_transient_launch_rate(0.25)
                .with_hung_kernel_rate(0.1)
                .with_copy_fault_rate(0.2),
        )
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = plan(7);
        let b = plan(7);
        let c = plan(8);
        let mut diverged = false;
        for seq in 0..256u64 {
            let x = a.decide(0, seq, 0, false, 2, None, false);
            assert_eq!(x, b.decide(0, seq, 0, false, 2, None, false));
            if x != c.decide(0, seq, 0, false, 2, None, false) {
                diverged = true;
            }
        }
        assert!(diverged, "two seeds injecting identically is a bad hash");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = plan(42);
        let n = 4096u64;
        let faults = (0..n)
            .filter(|&seq| p.decide(0, seq, 0, false, 2, None, false).is_some())
            .count() as f64;
        // transient 0.25 + hung on the remainder ≈ 0.325 combined.
        let rate = faults / n as f64;
        assert!((0.25..0.42).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn retries_redraw_and_usually_clear() {
        let p = plan(3);
        let mut cleared = 0;
        let mut faulted = 0;
        for seq in 0..512u64 {
            if p.decide(0, seq, 0, false, 2, None, false).is_some() {
                faulted += 1;
                if p.decide(0, seq, 1, false, 2, None, false).is_none() {
                    cleared += 1;
                }
            }
        }
        assert!(faulted > 50, "rate too low to test: {faulted}");
        assert!(
            cleared * 2 > faulted,
            "retries must redraw: {cleared}/{faulted} cleared"
        );
    }

    #[test]
    fn blame_excludes_the_avoided_device() {
        let p = plan(9);
        for seq in 0..128u64 {
            for avoid in 0..3usize {
                let b = p.blame(3, 0, seq, 1, Some(avoid));
                assert_ne!(b, avoid);
                assert!(b < 3);
            }
        }
        // Single device: nothing to fail over to.
        assert_eq!(p.blame(1, 0, 0, 1, Some(0)), 0);
    }

    #[test]
    fn sticky_device_faults_only_its_own_dispatches() {
        let p = FaultPlan::new(&ChaosConfig::new(5).with_sticky_device(1, 4));
        let mut hits = 0;
        for seq in 0..64u64 {
            let d = p.decide(0, seq, 0, false, 2, None, true);
            match d {
                Some(f) => {
                    assert_eq!(f.kind, FaultKind::DeviceFailure);
                    assert_eq!(f.device, 1);
                    assert!(seq >= 4, "sticky fired before from_seq at {seq}");
                    hits += 1;
                }
                None => assert!(seq < 4 || p.blame(2, 0, seq, 0, None) == 0),
            }
            // Inactive sticky (quarantined / reset device): no faults.
            assert_eq!(p.decide(0, seq, 0, false, 2, None, false), None);
        }
        assert!(hits > 10, "sticky device never blamed: {hits}");
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = RecoveryConfig {
            backoff_base_cycles: 64,
            backoff_cap_cycles: 200,
            ..RecoveryConfig::default()
        };
        assert_eq!(r.backoff_cycles(1), 64);
        assert_eq!(r.backoff_cycles(2), 128);
        assert_eq!(r.backoff_cycles(3), 200);
        assert_eq!(r.backoff_cycles(63), 200);
    }

    #[test]
    fn health_severity_is_ordered() {
        assert!(DeviceHealth::Healthy.severity() < DeviceHealth::Degraded.severity());
        assert!(DeviceHealth::Degraded.severity() < DeviceHealth::Quarantined.severity());
    }
}
