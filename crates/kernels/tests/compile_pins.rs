//! Pinned compiler output for every IR frontend the runtime constructs.
//!
//! One row per kernel: FNV-1a over everything `compile` returns — the
//! program image, `regs_used`, the source map and the per-pass report
//! (or the typed error) — at both opt levels under two processor
//! configurations, plus the kernel's content hash under each. The
//! committed `tests/golden/compile_pins.txt` was generated before the
//! compiler's side tables were re-laid-out, so a row that moves is a
//! changed program, register choice or report, not a refactor.
//! `BLESS=1 cargo test -p simt-kernels --test compile_pins` regenerates
//! it after a *deliberate* change to what the compiler emits.

use simt_compiler::{compile, fuse_kernels, Kernel, OptLevel};
use simt_core::ProcessorConfig;
use simt_kernels::pipeline::Pipeline;
use simt_kernels::workload::{int_vector, lowpass_taps, q15_signal};
use simt_kernels::{fir, iir, matmul, reduce, vector, KernelSource};
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The roomy configuration the launch specs use, and a tight predicated
/// one that drives the larger kernels into `OutOfRegisters` (so the
/// error payloads are pinned too).
fn configs() -> [ProcessorConfig; 2] {
    [
        ProcessorConfig::default()
            .with_threads(64)
            .with_shared_words(8192),
        ProcessorConfig::default()
            .with_threads(256)
            .with_shared_words(8192)
            .with_regs_per_thread(8)
            .with_predicates(true),
    ]
}

/// Everything one `compile` call observably produces.
fn digest(k: &Kernel, cfg: &ProcessorConfig, opt: OptLevel) -> u64 {
    let mut h = Fnv::new();
    h.word(k.content_hash(cfg));
    match compile(k, cfg, opt) {
        Ok(out) => {
            h.bytes(&simt_isa::to_image(&out.program));
            h.word(out.regs_used as u64);
            for s in &out.source_map {
                h.word(s.map_or(u64::MAX, u64::from));
            }
            h.word(out.report.insts_before as u64);
            h.word(out.report.insts_after as u64);
            for p in &out.report.passes {
                h.bytes(p.pass.as_bytes());
                h.word(p.insts_before as u64);
                h.word(p.insts_after as u64);
                h.word(p.changed as u64);
            }
        }
        Err(e) => h.bytes(format!("{e:?}").as_bytes()),
    }
    h.0
}

fn row(out: &mut String, name: &str, k: &Kernel) {
    write!(out, "{name}").unwrap();
    for cfg in &configs() {
        for opt in [OptLevel::None, OptLevel::Full] {
            write!(out, " {:016x}", digest(k, cfg, opt)).unwrap();
        }
    }
    out.push('\n');
}

/// A pipeline's stages stitched the way `simt-graph`'s fusion pass does
/// it: every non-final output window is a dead range.
fn fused_row(out: &mut String, p: &Pipeline) {
    let kernels: Vec<&Kernel> = p
        .stages
        .iter()
        .map(|s| match &s.source {
            KernelSource::Ir(k) => k,
            KernelSource::Asm(_) => unreachable!("pipeline stages are IR"),
        })
        .collect();
    let dead: Vec<(usize, usize)> = p.stages[..p.stages.len() - 1]
        .iter()
        .map(|s| (s.out_off, s.out_off + s.out_len))
        .collect();
    let (k, r) = fuse_kernels(&p.name, &kernels, &dead, p.config.threads).expect("fusible");
    let mut h = Fnv::new();
    for n in [
        r.parts,
        r.insts_before,
        r.insts_after,
        r.loads_eliminated,
        r.stores_elided,
        r.pipeline.passes.len(),
    ] {
        h.word(n as u64);
    }
    row(out, &format!("fuse:{}:{:016x}", p.name, h.0), &k);
}

fn table() -> String {
    let mut out = String::from("# kernel  O0@cfg0 O2@cfg0 O0@cfg1 O2@cfg1\n");
    // 1 and 0 hit the multiply identities, 8 the shift rewrite.
    for a in [-3, 0, 1, 7, 8, 1000] {
        row(&mut out, &format!("saxpy_a{a}"), &vector::saxpy_ir(a));
    }
    row(&mut out, "fma", &vector::fma_ir());
    for n in [64, 256] {
        row(&mut out, &format!("dot{n}"), &reduce::dot_ir(n));
        row(&mut out, &format!("sum{n}"), &reduce::sum_ir(n));
    }
    for taps in 4..=32 {
        row(&mut out, &format!("fir{taps}"), &fir::fir_ir(taps));
    }
    // bench-e2e's compile_cold shapes: 64-thread outputs, every inner
    // dimension it walks.
    for (m, cols, ks) in [(8, 8, 29), (4, 16, 29), (16, 4, 29), (2, 32, 13)] {
        for k in 4..4 + ks {
            row(
                &mut out,
                &format!("matmul{m}x{k}x{cols}"),
                &matmul::matmul_ir(m, k, cols),
            );
        }
    }
    for m in 2..=8 {
        row(
            &mut out,
            &format!("iir64x{m}"),
            &iir::iir_ir(64, m, iir::Biquad::lowpass()),
        );
    }
    let n = 256;
    let v = |seed| int_vector(n, seed);
    fused_row(&mut out, &Pipeline::saxpy_scale_sum(3, 2, &v(1), &v(2), 0));
    fused_row(&mut out, &Pipeline::saxpy_dot(-5, &v(3), &v(4), &v(5), 0));
    fused_row(
        &mut out,
        &Pipeline::fir_sum(&q15_signal(n + 15, 6), &lowpass_taps(16), n, 0),
    );
    out
}

#[test]
fn every_frontend_compiles_to_its_pinned_output() {
    let actual = table();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compile_pins.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let moved: Vec<String> = actual
        .lines()
        .zip(want.lines())
        .filter(|(a, w)| a != w)
        .map(|(a, w)| format!("  want {w}\n  got  {a}"))
        .collect();
    assert!(
        moved.is_empty() && actual.lines().count() == want.lines().count(),
        "{} of {} pinned rows moved:\n{}",
        moved.len(),
        want.lines().count(),
        moved.join("\n")
    );
}
