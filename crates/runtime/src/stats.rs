//! Runtime accounting — the scheduler's *books*: per-stream and
//! per-device counts, cycle sums and wall-clock, built on the core's
//! [`ExecStats`] machinery. Counts and sums live here and nowhere else
//! (the metrics snapshot derives its work counters from these fields);
//! *where and when* each command ran is not here but in the event ring,
//! one [`simt_profile::Event::Placed`] per completed command — see "Who
//! owns which fact" in [`crate::scheduler`]. A snapshot is
//! O(streams + devices) however long the pool has run.

use simt_core::ExecStats;
pub use simt_profile::CommandKind;
use std::time::Duration;

/// Per-stream accounting.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Commands completed.
    pub commands: u64,
    /// Kernel launches completed.
    pub launches: u64,
    /// Copies completed (either direction).
    pub copies: u64,
    /// Words moved by copies.
    pub copy_words: u64,
    /// Modeled device clocks spent in copies.
    pub copy_cycles: u64,
    /// Aggregated execution statistics of every launch (cycle-exact).
    pub compute: ExecStats,
    /// Host wall-clock spent executing this stream's commands.
    pub busy_wall: Duration,
}

/// Per-device accounting. Launches, copies, cycles and cache counters
/// follow the *placement* decision — the virtual device the scheduler
/// put each command on at dispatch (least-loaded, not stream-affine);
/// `batches` counts the physical worker's wake-ups.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Kernel launches placed on this device.
    pub launches: u64,
    /// Copies placed on this device.
    pub copies: u64,
    /// Commands placed on this device's virtual timeline at dispatch
    /// (stream commands and graph-replay nodes alike).
    pub placements: u64,
    /// Scheduler batches this device's worker executed (one wake-up may
    /// drain several ready commands).
    pub batches: u64,
    /// Commands executed across all batches.
    pub batched_commands: u64,
    /// Launches that reused a cached processor build (compatible-config
    /// batching).
    pub cache_hits: u64,
    /// Launches that needed a fresh processor build.
    pub cache_misses: u64,
    /// Launches that found their compiled program in the pool's
    /// content-addressed compile cache.
    pub compile_hits: u64,
    /// Launches that had to assemble/compile their kernel source.
    pub compile_misses: u64,
    /// Modeled device clocks the device was busy (compute + copies).
    pub busy_cycles: u64,
    /// Aggregated execution statistics of every launch.
    pub compute: ExecStats,
    /// Host wall-clock the device worker spent executing.
    pub busy_wall: Duration,
    /// Times this device's worker was woken from its wait for work.
    pub wakeups: u64,
    /// Wake-ups that found nothing to claim and went back to sleep —
    /// `1 - idle_wakeups / wakeups` is the wake layer's useful share.
    pub idle_wakeups: u64,
}

/// A snapshot of the runtime's accounting.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Per-stream statistics, indexed by stream id.
    pub streams: Vec<StreamStats>,
    /// Per-device statistics, indexed by device id.
    pub devices: Vec<DeviceStats>,
    /// Artifacts evicted from the pool's compile cache by its LRU bound.
    pub compile_evictions: u64,
    /// Wall-clock elapsed since the runtime was built.
    pub wall: Duration,
    /// Modeled completion time of the whole submitted job graph in
    /// device clocks: the discrete-event makespan over every device's
    /// compute and copy engines and every stream's dependency chain.
    pub makespan_cycles: u64,
    /// Modeled device clock in MHz (from the pool configuration).
    pub fmax_mhz: f64,
}

impl RuntimeStats {
    /// Total launches completed.
    pub fn launches(&self) -> u64 {
        self.streams.iter().map(|s| s.launches).sum()
    }

    /// Total commands completed.
    pub fn commands(&self) -> u64 {
        self.streams.iter().map(|s| s.commands).sum()
    }

    /// Launches that hit the pool's content-addressed compile cache.
    pub fn compile_hits(&self) -> u64 {
        self.devices.iter().map(|d| d.compile_hits).sum()
    }

    /// Launches that had to assemble/compile their source.
    pub fn compile_misses(&self) -> u64 {
        self.devices.iter().map(|d| d.compile_misses).sum()
    }

    /// Compile-cache hit rate over every launch (0 with no launches).
    pub fn compile_hit_rate(&self) -> f64 {
        let hits = self.compile_hits() as f64;
        let total = hits + self.compile_misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Launches per wall-clock second since runtime construction.
    pub fn launches_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.launches() as f64 / secs
        }
    }

    /// Fraction of wall-clock a device spent executing (0..=1).
    pub fn device_occupancy(&self, device: usize) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall == 0.0 {
            0.0
        } else {
            (self.devices[device].busy_wall.as_secs_f64() / wall).min(1.0)
        }
    }

    /// Mean device occupancy across the pool.
    pub fn mean_occupancy(&self) -> f64 {
        if self.devices.is_empty() {
            0.0
        } else {
            (0..self.devices.len())
                .map(|d| self.device_occupancy(d))
                .sum::<f64>()
                / self.devices.len() as f64
        }
    }

    /// Total modeled device clocks across the pool (compute + copies).
    pub fn device_cycles(&self) -> u64 {
        self.devices.iter().map(|d| d.busy_cycles).sum()
    }

    /// Modeled wall-clock of the submitted job graph: the virtual-time
    /// makespan at the configured device clock. A function of the work
    /// and of the order commands completed in — with more than one
    /// worker, cross-stream placement follows host completion order.
    pub fn modeled_seconds(&self) -> f64 {
        self.makespan_cycles as f64 / (self.fmax_mhz * 1e6)
    }

    /// Modeled device-pool *compute* occupancy in virtual time: kernel
    /// clocks over `devices × makespan` (0..=1; copies run on the DMA
    /// engine and are excluded).
    pub fn modeled_occupancy(&self) -> f64 {
        if self.makespan_cycles == 0 || self.devices.is_empty() {
            0.0
        } else {
            let compute: u64 = self.devices.iter().map(|d| d.compute.cycles).sum();
            compute as f64 / (self.makespan_cycles as f64 * self.devices.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_aggregates_fieldwise() {
        // The runtime aggregates through `ExecStats::merge` (which
        // destructures exhaustively, so a new core counter cannot be
        // silently dropped here).
        let mut a = ExecStats {
            cycles: 10,
            instructions: 2,
            ..Default::default()
        };
        let b = ExecStats {
            cycles: 5,
            instructions: 3,
            thread_ops: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.instructions, 5);
        assert_eq!(a.thread_ops, 7);
    }
}
