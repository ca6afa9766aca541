//! Multi-core strong scaling (§6 future work): a fixed 1024-element dot
//! product split across 1..4 cores, accounting the stamped system clock
//! each core count actually achieves — more cores shrink the per-core
//! reduction but pay a slower clock and interconnect latency (the §5.1
//! trade-off). The store-bound reduction splits well across *modeled*
//! cores: each core's 16:1 write mux streams a quarter of the threads,
//! and the cores are concurrent on the modeled clock. The host runs
//! them one after another; results do not depend on that order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fpga_fabric::Device;
use simt_core::{ProcessorConfig, RunOptions};
use simt_isa::assemble;
use simt_kernels::reduce::{dot_asm_scaled, SCRATCH, X_OFF, Y_OFF};
use simt_kernels::workload::int_vector;
use simt_system::{System, SystemConfig};

const TOTAL: usize = 1024;

fn run_on_cores(cores: usize) -> (u64, f64) {
    let per_core = TOTAL / cores;
    let x = int_vector(TOTAL, 1);
    let y = int_vector(TOTAL, 2);
    let mut sys = System::new(SystemConfig {
        cores,
        core: ProcessorConfig::default()
            .with_threads(per_core)
            .with_shared_words(4096),
        ..Default::default()
    })
    .unwrap();
    for c in 0..cores {
        let xs: Vec<u32> = x[c * per_core..(c + 1) * per_core]
            .iter()
            .map(|&v| v as u32)
            .collect();
        let ys: Vec<u32> = y[c * per_core..(c + 1) * per_core]
            .iter()
            .map(|&v| v as u32)
            .collect();
        sys.core_mut(c).shared_mut().load_words(X_OFF, &xs).unwrap();
        sys.core_mut(c).shared_mut().load_words(Y_OFF, &ys).unwrap();
    }
    let p = assemble(&dot_asm_scaled(per_core)).unwrap();
    sys.load_all(&p).unwrap();
    sys.run_phase(RunOptions::default()).unwrap();
    for c in 1..cores {
        sys.transfer(c, SCRATCH, 0, SCRATCH + c, 1).unwrap();
    }
    let cycles = sys.stats().cycles;
    let fmax = sys.derive_system_fmax(&Device::agfd019());
    (cycles, fmax)
}

fn print_scaling() {
    println!("\n[system] strong scaling, 1024-element dot product:");
    println!("[system] cores   clocks   sys-MHz   wall(us)");
    let (c1, f1) = run_on_cores(1);
    let base = c1 as f64 / (f1 * 1e6);
    for cores in [1usize, 2, 4] {
        let (clk, fmax) = run_on_cores(cores);
        let wall = clk as f64 / (fmax * 1e6);
        println!(
            "[system] {cores:>5} {clk:>8} {fmax:>9.0} {:>9.3}   ({:.2}x)",
            wall * 1e6,
            base / wall
        );
    }
}

fn bench(c: &mut Criterion) {
    print_scaling();
    let mut g = c.benchmark_group("system_scaling");
    g.sample_size(10);
    for cores in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("dot1024", cores), &cores, |b, &n| {
            b.iter(|| run_on_cores(std::hint::black_box(n)).0)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
