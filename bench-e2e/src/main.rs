//! `bench-e2e` — the repo's two-clock end-to-end benchmark.
//!
//! ```text
//! bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench-e2e --selfcheck [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! `--trace 0` is the timed run: it prints the end-to-end metrics.
//! `--trace 1` is the traced run: it prints the per-layer metrics and
//! writes `out/<workload>.trace.json` beside this package's manifest.
//! The last line of standard output is one JSON object (`correct`,
//! `attempted`, `failed`, `metrics`); the exit code is non-zero if any
//! output was wrong or an exact metric failed to repeat. See README.md.

mod layers;
mod model;
mod report;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use report::{Report, E2E};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{WaveOut, WORKLOADS};

/// Length of one round of the timed run.
const ROUND: Duration = Duration::from_millis(500);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}`; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

/// The host the numbers were taken on.
fn print_host(rounds: usize, calib_ns: f64) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# nproc {nproc}, pool pinned to 2 devices, 1 generator thread, {rounds} measured rounds, \
         harness.calib_ns {calib_ns:.0}"
    );
}

/// The end-to-end metrics of one timed run, plus the two the contract
/// keeps out of the result line (see README.md).
fn e2e_report(t: &run::Timed) -> Report {
    let (launches_per_s, thread_ops_per_s) = t.host_rates();
    let mut r = Report::default();
    r.push("host_launches_per_s", launches_per_s, "launches/s");
    r.push("host_thread_ops_per_s", thread_ops_per_s, "thread-ops/s");
    r.push("host_rss_mib", t.rss_mib, "MiB");
    r.push("setup_s", t.setup_s, "s");
    r.push("modeled_makespan_us", t.leg.makespan_us(), "us");
    r.push(
        "modeled_cycles_per_launch",
        t.leg.cycles_per_launch(),
        "cycles",
    );
    r.push(
        "modeled_thread_ops_per_cycle",
        t.leg.thread_ops_per_cycle(),
        "ops/cycle",
    );
    r
}

fn timed(workload: &str, seed: u64, seconds: f64) -> Result<(Report, WaveOut), String> {
    let t = run::timed(workload, seed, seconds, ROUND)?;
    let rates: Vec<f64> = t
        .rounds
        .iter()
        .map(run::Round::raw_launches_per_s)
        .collect();

    let calib: Vec<f64> = t.rounds.iter().map(|r| r.calib_ns).collect();
    println!("# {workload}, seed {seed}: timed run");
    print_host(t.rounds.len(), stats::median(&calib));
    let r = e2e_report(&t);
    r.print();
    // Never a wall-clock number without its spread, never a modeled
    // number without the model's error.
    println!(
        "# rounds as timed: median {:.1} launches/s, MAD {:.2} %, min {:.1}, max {:.1}; \
         {} waves: p5 {:.1} us, p50 {:.1} us, p99 {:.1} us",
        stats::median(&rates),
        stats::mad_pct(&rates),
        stats::min(&rates),
        stats::max(&rates),
        t.wave_us.seen(),
        stats::percentile(t.wave_us.kept(), 5.0),
        stats::percentile(t.wave_us.kept(), 50.0),
        stats::percentile(t.wave_us.kept(), 99.0),
    );
    println!(
        "{:<44} {:>20} %",
        "anchor_err_pct",
        model::max_err_pct(&model::anchors())
    );
    println!(
        "{:<44} {:>20} fraction",
        "failed_share",
        t.checked.failed as f64 / t.checked.attempted as f64
    );
    Ok((r, t.checked))
}

fn traced(workload: &str, seed: u64, seconds: f64) -> Result<(Report, WaveOut), String> {
    let t = trace::traced(workload, seed, seconds)?;
    println!("# {workload}, seed {seed}: traced run");
    print_host(
        t.report.get("harness.rounds").unwrap_or(0.0) as usize,
        t.report.get("harness.calib_ns").unwrap_or(0.0),
    );
    t.report.print();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, &t.spans_json))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok((t.report, t.checked))
}

/// Run each workload's timed run twice and compare: host-clock metrics
/// within their bounds, modeled-clock metrics identical.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let manifest = include_str!("../../BENCHMARK.json");
    let mut ok = true;
    for workload in WORKLOADS {
        if args.workload.as_deref().is_some_and(|w| w != workload) {
            continue;
        }
        let (a, ca) = timed(workload, args.seed, args.seconds)?;
        let (b, cb) = timed(workload, args.seed, args.seconds)?;
        ok &= ca.failed + cb.failed == 0;
        for m in &E2E {
            let bound = report::manifest_bound(manifest, m.name)
                .ok_or_else(|| format!("{} has no bound in BENCHMARK.json", m.name))?;
            let bound = if m.name == "setup_s" {
                report::SETUP_SELFCHECK_BOUND
            } else {
                bound
            };
            let (x, y) = (a.get(m.name).unwrap_or(0.0), b.get(m.name).unwrap_or(0.0));
            let worse = if m.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let pass = if m.exact { x == y } else { worse <= bound };
            println!(
                "selfcheck {workload}: {:<30} {x:>18.6} -> {y:>18.6} ({:+.2} %, {}) {}",
                m.name,
                100.0 * worse,
                if m.exact {
                    "exact".to_string()
                } else {
                    format!("bound {:.0} %", 100.0 * bound)
                },
                if pass { "ok" } else { "FAIL" }
            );
            ok &= pass;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match selfcheck(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench-e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("bench-e2e: --workload is required");
        return ExitCode::from(2);
    };
    let result = if args.trace {
        traced(workload, args.seed, args.seconds)
    } else {
        timed(workload, args.seed, args.seconds)
    };
    match result {
        Ok((report, checked)) => {
            let correct = checked.failed == 0;
            println!(
                "{}",
                report::result_line(correct, checked.attempted, checked.failed, &report)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
