//! Pinned compiler output for the generator's kernels, seeds 0..200 —
//! nested carried loops, guards, `.tk` scales and predicates, the
//! shapes the hand-written IR frontends (pinned in
//! `simt-kernels/tests/compile_pins.rs`) do not reach.
//!
//! One row per seed: FNV-1a over everything `compile` returns for both
//! stages at both opt levels, under the fuzz configuration and a tight
//! one (8 registers, so `OutOfRegisters`/`OutOfPredicates` payloads are
//! pinned as well). A refactor leaves every row of the committed
//! `tests/golden/compile_pins.txt` as it is;
//! `BLESS=1 cargo test -p simt-fuzzgen --test compile_pins` regenerates
//! it after a *deliberate* change to what the compiler emits.

use simt_compiler::{compile, Kernel, OptLevel};
use simt_core::ProcessorConfig;
use simt_fuzzgen::gen::{materialize, program_for_seed};
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Everything one `compile` call observably produces.
fn digest(h: &mut Fnv, k: &Kernel, cfg: &ProcessorConfig, opt: OptLevel) {
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
}

fn table() -> String {
    let mut out = String::from("# seed  fuzz-config  8-register-config\n");
    for seed in 0..200 {
        let m = materialize(&program_for_seed(seed));
        let tight = m.config.clone().with_regs_per_thread(8);
        write!(out, "{seed}").unwrap();
        for cfg in [&m.config, &tight] {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            for k in &m.kernels {
                for opt in [OptLevel::None, OptLevel::Full] {
                    digest(&mut h, k, cfg, opt);
                }
            }
            write!(out, " {:016x}", h.0).unwrap();
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_generated_kernel_compiles_to_its_pinned_output() {
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
