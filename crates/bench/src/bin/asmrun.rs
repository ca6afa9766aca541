//! `asmrun` — assemble and run a kernel source file on the simulator.
//!
//! ```sh
//! cargo run -p simt-bench --bin asmrun -- kernel.s \
//!     [--threads N] [--regs N] [--shared WORDS] [--predicates] \
//!     [--trace] [--dump OFF..END]
//! ```
//!
//! Prints execution statistics and, with `--dump`, a window of shared
//! memory; `--trace` prints the instruction-issue transcript. Every run
//! is cycle-accurate: the counter hardware is stepped once per
//! instruction of the program and checked against the closed form.

use simt_core::{Processor, ProcessorConfig, RunOptions};
use simt_isa::disasm::format_instruction;

fn fail(msg: &str) -> ! {
    eprintln!("asmrun: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        fail("usage: asmrun FILE.s [--threads N] [--regs N] [--shared WORDS] [--predicates] [--trace] [--dump OFF..END]");
    }
    let mut file = None;
    let mut cfg = ProcessorConfig::default().with_threads(64);
    let mut trace = false;
    let mut dump: Option<(usize, usize)> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next_num = |name: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| fail(&format!("{name} needs a number")))
        };
        match a.as_str() {
            "--threads" => cfg.threads = next_num("--threads"),
            "--regs" => cfg.regs_per_thread = next_num("--regs"),
            "--shared" => cfg.shared_words = next_num("--shared"),
            "--predicates" => cfg.predicates = true,
            "--trace" => trace = true,
            "--dump" => {
                let spec = it.next().unwrap_or_else(|| fail("--dump needs OFF..END"));
                let (a, b) = spec
                    .split_once("..")
                    .unwrap_or_else(|| fail("--dump needs OFF..END"));
                dump = Some((
                    a.parse().unwrap_or_else(|_| fail("bad dump start")),
                    b.parse().unwrap_or_else(|_| fail("bad dump end")),
                ));
            }
            f if !f.starts_with("--") && file.is_none() => file = Some(f.to_string()),
            other => fail(&format!("unknown argument `{other}`")),
        }
    }
    let file = file.unwrap_or_else(|| fail("no source file given"));
    let src = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| fail(&format!("cannot read {file}: {e}")));

    let program = match simt_isa::assemble(&src) {
        Ok(p) => p,
        Err(e) => fail(&format!("assembly failed: {e}")),
    };
    let mut cpu = match Processor::new(cfg.clone()) {
        Ok(c) => c,
        Err(e) => fail(&format!("bad configuration: {e}")),
    };
    if let Err(e) = cpu.load_program(&program) {
        fail(&format!("load failed: {e}"));
    }

    let opts = RunOptions::cycle_accurate();
    if trace {
        match cpu.run_traced(opts) {
            Ok((stats, entries)) => {
                println!("pc    clocks active  instruction");
                for e in &entries {
                    let i = program.fetch(e.pc).unwrap();
                    println!(
                        "{:>4}  {:>6} {:>6}  {}{}",
                        e.pc,
                        e.clocks,
                        e.active,
                        format_instruction(i),
                        e.jumped.map(|t| format!("   -> {t}")).unwrap_or_default()
                    );
                }
                report(&stats, &cpu, dump);
            }
            Err(e) => fail(&format!("trap: {e}")),
        }
    } else {
        match cpu.run(opts) {
            Ok(stats) => report(&stats, &cpu, dump),
            Err(e) => fail(&format!("trap: {e}")),
        }
    }
}

fn report(stats: &simt_core::ExecStats, cpu: &Processor, dump: Option<(usize, usize)>) {
    println!(
        "\n{} instructions, {} clocks (ops {}, loads {}, stores {}, flushes {})",
        stats.instructions,
        stats.cycles,
        stats.op_cycles,
        stats.load_cycles,
        stats.store_cycles,
        stats.branch_flush_cycles
    );
    println!(
        "at 956 MHz: {:.3} us   |   at 771 MHz (eGPU): {:.3} us",
        stats.seconds_at(956.0) * 1e6,
        stats.seconds_at(771.0) * 1e6
    );
    if let Some((a, b)) = dump {
        match cpu.shared().read_words(a, b.saturating_sub(a)) {
            Ok(words) => {
                for (i, chunk) in words.chunks(8).enumerate() {
                    let addr = a + i * 8;
                    let row: Vec<String> =
                        chunk.iter().map(|w| format!("{:>10}", *w as i32)).collect();
                    println!("[{addr:>5}] {}", row.join(" "));
                }
            }
            Err(e) => eprintln!("dump failed: {e}"),
        }
    }
}
