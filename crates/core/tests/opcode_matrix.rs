#![allow(clippy::needless_range_loop)] // tests index several parallel arrays by thread id

//! The opcode matrix: every one of the 61 instructions executed on
//! **both** interpreters and checked against an *independent* reference
//! semantics written directly in this test — neither the datapath
//! models nor `alu::native`. `run_reference` evaluates the gate
//! structure, so a bug in the DSP-vector composition or the
//! multiplicative shifter shows up here as a semantic mismatch on that
//! side; `run` evaluates host arithmetic, so a wrong native arm shows up
//! on the other.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simt_core::{ExecError, ExecStats, Processor, ProcessorConfig, RunOptions};
use simt_isa::{assemble, Instruction, Opcode, Program};
use std::fmt::Debug;

const N: usize = 48; // covers full and partial thread rows

/// Per-thread input registers r1..r3 plus predicate p1, seeded.
struct Inputs {
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    p: Vec<bool>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Inputs {
        a: (0..N).map(|_| rng.gen()).collect(),
        b: (0..N).map(|_| rng.gen()).collect(),
        c: (0..N).map(|_| rng.gen()).collect(),
        p: (0..N).map(|_| rng.gen()).collect(),
    }
}

/// The two interpreters, by the name an assertion prints.
const INTERPRETERS: [(&str, bool); 2] = [("run", false), ("run_reference", true)];

fn run_on(cpu: &mut Processor, reference: bool) -> Result<ExecStats, ExecError> {
    if reference {
        cpu.run_reference(RunOptions::default())
    } else {
        cpu.run(RunOptions::default())
    }
}

/// Run one instruction line (writing r7) over the seeded inputs through
/// each of [`INTERPRETERS`] and return r7 per thread for each. `line`
/// may reference r1 (=a), r2 (=b), r3 (=c), p1 (=p), r6 (=tid-dependent
/// small shift 0..=35 for shift tests).
fn run_line(line: &str, inp: &Inputs) -> [Vec<u32>; 2] {
    let src = format!("  {line}\n  exit");
    let program = assemble(&src).unwrap();
    let mut cpu = Processor::new(
        ProcessorConfig::small()
            .with_threads(N)
            .with_predicates(true),
    )
    .unwrap();
    cpu.regfile_mut().scatter(1, &inp.a);
    cpu.regfile_mut().scatter(2, &inp.b);
    cpu.regfile_mut().scatter(3, &inp.c);
    let shifts: Vec<u32> = (0..N as u32).map(|t| t % 36).collect();
    cpu.regfile_mut().scatter(6, &shifts);
    for (t, &p) in inp.p.iter().enumerate() {
        cpu.regfile_mut().write_pred(t, 1, p);
    }
    cpu.load_program(&program).unwrap();
    INTERPRETERS.map(|(_, reference)| {
        let mut cpu = cpu.clone();
        run_on(&mut cpu, reference).unwrap();
        cpu.regfile().gather(7)
    })
}

/// Hold what `line` leaves in r7 on each interpreter against `want`.
fn check_line<F: Fn(usize) -> u32>(line: &str, inp: &Inputs, want: F) {
    for ((interpreter, _), got) in INTERPRETERS.iter().zip(run_line(line, inp)) {
        for t in 0..N {
            assert_eq!(
                got[t],
                want(t),
                "`{line}` on `{interpreter}`, thread {t}: a={:#x} b={:#x} c={:#x} p={}",
                inp.a[t],
                inp.b[t],
                inp.c[t],
                inp.p[t]
            );
        }
    }
}

fn check<F: Fn(usize, u32, u32, u32) -> u32>(line: &str, f: F) {
    let inp = inputs(0xC0FFEE);
    check_line(line, &inp, |t| f(t, inp.a[t], inp.b[t], inp.c[t]));
}

#[test]
fn arithmetic_group() {
    check("add r7, r1, r2", |_, a, b, _| a.wrapping_add(b));
    check("sub r7, r1, r2", |_, a, b, _| a.wrapping_sub(b));
    check("min r7, r1, r2", |_, a, b, _| {
        (a as i32).min(b as i32) as u32
    });
    check("max r7, r1, r2", |_, a, b, _| {
        (a as i32).max(b as i32) as u32
    });
    check("abs r7, r1", |_, a, _, _| (a as i32).wrapping_abs() as u32);
    check("neg r7, r1", |_, a, _, _| (a as i32).wrapping_neg() as u32);
    check("sad r7, r1, r2, r3", |_, a, b, c| {
        let d = (a as i32 as i64 - b as i32 as i64).unsigned_abs() as u32;
        c.wrapping_add(d)
    });
    check("addi r7, r1, -77", |_, a, _, _| {
        a.wrapping_add(-77i32 as u32)
    });
    check("subi r7, r1, 0x1234", |_, a, _, _| a.wrapping_sub(0x1234));
}

#[test]
fn multiplier_group() {
    check("mul.lo r7, r1, r2", |_, a, b, _| a.wrapping_mul(b));
    check("mul.hi r7, r1, r2", |_, a, b, _| {
        (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32
    });
    check("mulu.hi r7, r1, r2", |_, a, b, _| {
        (((a as u64) * (b as u64)) >> 32) as u32
    });
    check("mad.lo r7, r1, r2, r3", |_, a, b, c| {
        a.wrapping_mul(b).wrapping_add(c)
    });
    check("mad.hi r7, r1, r2, r3", |_, a, b, c| {
        ((((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32).wrapping_add(c)
    });
    check("muli r7, r1, 3001", |_, a, _, _| a.wrapping_mul(3001));
}

#[test]
fn logic_group() {
    check("and r7, r1, r2", |_, a, b, _| a & b);
    check("or r7, r1, r2", |_, a, b, _| a | b);
    check("xor r7, r1, r2", |_, a, b, _| a ^ b);
    check("not r7, r1", |_, a, _, _| !a);
    check("cnot r7, r1", |_, a, _, _| (a == 0) as u32);
    check("andi r7, r1, 0xFF00FF", |_, a, _, _| a & 0xFF00FF);
    check("ori r7, r1, 0x10001", |_, a, _, _| a | 0x10001);
    check("xori r7, r1, -1", |_, a, _, _| a ^ u32::MAX);
    check("popc r7, r1", |_, a, _, _| a.count_ones());
    check("clz r7, r1", |_, a, _, _| a.leading_zeros());
    check("brev r7, r1", |_, a, _, _| a.reverse_bits());
}

#[test]
fn shift_group() {
    // Register-amount shifts: r6 holds tid % 36 (includes out-of-range).
    let sem_shl = |s: u32, a: u32| if s >= 32 { 0 } else { a << s };
    let sem_lsr = |s: u32, a: u32| if s >= 32 { 0 } else { a >> s };
    let sem_asr = |s: u32, a: u32| {
        if s >= 32 {
            ((a as i32) >> 31) as u32
        } else {
            ((a as i32) >> s) as u32
        }
    };
    check("shl r7, r1, r6", move |t, a, _, _| {
        sem_shl((t % 36) as u32, a)
    });
    check("lsr r7, r1, r6", move |t, a, _, _| {
        sem_lsr((t % 36) as u32, a)
    });
    check("asr r7, r1, r6", move |t, a, _, _| {
        sem_asr((t % 36) as u32, a)
    });
    check("shli r7, r1, 7", move |_, a, _, _| sem_shl(7, a));
    check("lsri r7, r1, 31", move |_, a, _, _| sem_lsr(31, a));
    check("asri r7, r1, 13", move |_, a, _, _| sem_asr(13, a));
}

#[test]
fn fixed_point_group() {
    check("satadd r7, r1, r2", |_, a, b, _| {
        (a as i32).saturating_add(b as i32) as u32
    });
    check("satsub r7, r1, r2", |_, a, b, _| {
        (a as i32).saturating_sub(b as i32) as u32
    });
    check("mulshr r7, r1, r2, 15", |_, a, b, _| {
        (((a as i32 as i64) * (b as i32 as i64)) >> 15) as u32
    });
    check("shadd r7, r1, r2, 3", |_, a, b, _| (a << 3).wrapping_add(b));
    check("bfe r7, r1, 5, 11", |_, a, _, _| (a >> 5) & ((1 << 11) - 1));
    check("rotri r7, r1, 9", |_, a, _, _| a.rotate_right(9));
}

#[test]
fn compare_and_select_group() {
    // setp writes p0; read it back through selp(1, 0).
    let via_selp = |cc: &str| {
        format!("setp.{cc} p0, r1, r2\n  movi r4, 1\n  movi r5, 0\n  selp r7, r4, r5, p0")
    };
    for (cc, f) in [
        (
            "eq",
            Box::new(|a: i32, b: i32| a == b) as Box<dyn Fn(i32, i32) -> bool>,
        ),
        ("ne", Box::new(|a, b| a != b)),
        ("lt", Box::new(|a, b| a < b)),
        ("le", Box::new(|a, b| a <= b)),
        ("gt", Box::new(|a, b| a > b)),
        ("ge", Box::new(|a, b| a >= b)),
    ] {
        let inp = inputs(7);
        check_line(&via_selp(cc), &inp, |t| {
            f(inp.a[t] as i32, inp.b[t] as i32) as u32
        });
    }
    // Unsigned pair.
    let inp = inputs(8);
    check_line(&via_selp("ltu"), &inp, |t| (inp.a[t] < inp.b[t]) as u32);
    check_line(&via_selp("geu"), &inp, |t| (inp.a[t] >= inp.b[t]) as u32);
    // selp with the pre-seeded p1.
    let inp = inputs(9);
    check_line("selp r7, r1, r2, p1", &inp, |t| {
        if inp.p[t] {
            inp.a[t]
        } else {
            inp.b[t]
        }
    });
}

#[test]
fn move_group() {
    check("mov r7, r1", |_, a, _, _| a);
    check("movi r7, -123456", |_, _, _, _| -123456i32 as u32);
    check("stid r7", |t, _, _, _| t as u32);
    check("sntid r7", |_, _, _, _| N as u32);
}

#[test]
fn memory_group() {
    // lds/sts through per-thread addressing.
    let inp = inputs(10);
    let src = "  stid r4\n  sts [r4+100], r1\n  lds r7, [r4+100]\n  exit";
    let program = assemble(src).unwrap();
    for (interpreter, reference) in INTERPRETERS {
        let mut cpu = Processor::new(ProcessorConfig::small().with_threads(N)).unwrap();
        cpu.regfile_mut().scatter(1, &inp.a);
        cpu.load_program(&program).unwrap();
        run_on(&mut cpu, reference).unwrap();
        assert_eq!(cpu.regfile().gather(7), inp.a, "{interpreter}");
        assert_eq!(
            &cpu.shared().as_slice()[100..100 + N],
            &inp.a[..],
            "{interpreter}"
        );
    }
}

#[test]
fn control_group() {
    // bra / brp / call / ret / loop / nop / bar / exit all exercised in
    // one program whose final state proves each executed correctly.
    let src = "
          movi r1, 0
          bra over
          movi r1, 99          ; skipped
        over:
          call sub
          loop 4, lend
          addi r1, r1, 10
        lend:
          nop
          bar
          movi r2, 1
          movi r3, 0
          setp.gt p0, r2, r3
          @p0 brp fin
          movi r1, 99          ; skipped (branch taken)
        fin:
          stid r4
          sts [r4+0], r1
          exit
        sub:
          addi r1, r1, 1
          ret";
    let program = assemble(src).unwrap();
    for (interpreter, reference) in INTERPRETERS {
        let mut cpu = Processor::new(
            ProcessorConfig::small()
                .with_threads(N)
                .with_predicates(true),
        )
        .unwrap();
        cpu.load_program(&program).unwrap();
        let stats = run_on(&mut cpu, reference).unwrap();
        // 1 (call) + 4*10 (loop) = 41, and the two skipped movi 99s never ran.
        assert!(
            cpu.shared().as_slice()[..N].iter().all(|&v| v == 41),
            "{interpreter}"
        );
        assert_eq!(stats.branches_taken, 4, "{interpreter}"); // bra, call, ret, brp
        assert_eq!(stats.loop_backedges, 3, "{interpreter}");
    }
}

/// A processor over `N` threads with r1..r3 seeded from `inp` and r0
/// from their mix (all masked to small in-bounds addresses when
/// `small`), p1 from `inp.p`, and shared memory holding a recognisable
/// pattern.
fn seeded(inp: &Inputs, small: bool) -> Processor {
    let mut cpu = Processor::new(
        ProcessorConfig::small()
            .with_threads(N)
            .with_predicates(true),
    )
    .unwrap();
    let mask = if small { 0xFF } else { u32::MAX };
    let mix: Vec<u32> = (0..N).map(|t| inp.a[t] ^ inp.b[t].rotate_left(7)).collect();
    for (reg, vals) in [(0, &mix), (1, &inp.a), (2, &inp.b), (3, &inp.c)] {
        let vals: Vec<u32> = vals.iter().map(|v| v & mask).collect();
        cpu.regfile_mut().scatter(reg, &vals);
    }
    for (t, &p) in inp.p.iter().enumerate() {
        cpu.regfile_mut().write_pred(t, 1, p);
    }
    cpu.shared_mut().load_words(0, &pattern()).unwrap();
    cpu
}

/// What [`seeded`] leaves in shared memory (`ProcessorConfig::small()`
/// has 1024 words).
fn pattern() -> Vec<u32> {
    (0..1024u32).map(|i| i.wrapping_mul(2654435761)).collect()
}

/// Every register (r0..r7) across all threads, plus the predicate nibbles.
fn machine_state(cpu: &Processor) -> (Vec<Vec<u32>>, Vec<[bool; 4]>) {
    (
        (0..8).map(|r| cpu.regfile().gather(r)).collect(),
        (0..N)
            .map(|t| [0, 1, 2, 3].map(|p| cpu.regfile().read_pred(t, p)))
            .collect(),
    )
}

#[test]
fn aliasing_matrix() {
    // The column kernels write rd in place and read a source that *is*
    // rd from a copy taken first; rd aliasing any source, a guard, and a
    // `.tk`-scaled partial active set must all leave exactly what
    // per-lane in-order execution (the reference interpreter) leaves.
    // The r0 rows matter on their own: dead source fields decode to
    // register 0, so an rd of r0 "aliases" them without reading them.
    let inp = inputs(0xA11A5);
    let writers = Opcode::ALL
        .iter()
        .filter(|op| op.writes_rd() && op.cycle_class() != simt_isa::CycleClass::SingleCycle);
    let mut cases = 0;
    for &op in writers {
        // (rd, ra, rb, rc): rd == ra, rd == rb, rd == rc, all equal; then
        // the same with rd = r0, and r0 aliasing nothing live.
        for (rd, ra, rb, rc) in [
            (1, 1, 2, 3),
            (2, 1, 2, 3),
            (3, 1, 2, 3),
            (1, 1, 1, 1),
            (0, 0, 2, 3),
            (0, 1, 0, 3),
            (0, 1, 2, 0),
            (0, 1, 2, 3),
        ] {
            for guard in [None, Some(false), Some(true)] {
                for scale in [None, Some(1)] {
                    // selp's rc field is its steering predicate (p1).
                    let rc = if op == Opcode::Selp { 1 } else { rc };
                    let mut i = Instruction::new(op).rd(rd).ra(ra).rb(rb).rc(rc).imm(5);
                    if let Some(negate) = guard {
                        i = i.guarded(1, negate);
                    }
                    if let Some(k) = scale {
                        i = i.scaled(k);
                    }
                    let program =
                        Program::from_instructions(vec![i, Instruction::new(Opcode::Exit)]);
                    let what =
                        format!("{op:?} rd=r{rd} ra=r{ra} rb=r{rb} rc={rc} {guard:?} {scale:?}");

                    let before = seeded(&inp, op == Opcode::Lds);
                    let mut fast = before.clone();
                    fast.load_program(&program).unwrap();
                    let (_, trace) = fast.run_traced(RunOptions::default()).unwrap();
                    let mut oracle = before.clone();
                    oracle.load_program(&program).unwrap();
                    oracle.run_reference(RunOptions::default()).unwrap();
                    assert_eq!(machine_state(&fast), machine_state(&oracle), "{what}");

                    // Lanes outside `active` and guard-failed lanes keep
                    // their old value.
                    let active = trace[0].active;
                    assert_eq!(active, if scale.is_some() { N / 2 } else { N }, "{what}");
                    let (old, new) = (before.regfile().gather(rd), fast.regfile().gather(rd));
                    for t in 0..N {
                        let executes = t < active && guard.is_none_or(|negate| inp.p[t] != negate);
                        if !executes {
                            assert_eq!(new[t], old[t], "{what}: thread {t} must keep r{rd}");
                        }
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 44 * 8 * 3 * 2); // 43 value ops + lds
}

#[test]
fn lds_trap_on_lane_k_is_identical_on_both_interpreters() {
    // Lane K's address is out of bounds: both interpreters must report
    // the same trap and leave the same registers behind — lanes below K
    // loaded, K and above untouched — also when rd aliases ra.
    const K: usize = 21;
    let inp = inputs(0x7EA9);
    for (line, rd) in [("lds r7, [r1+3]", 7u8), ("lds r1, [r1+3]", 1)] {
        for guard in ["", "@p1 ", "@!p1 "] {
            let program = assemble(&format!("  {guard}{line}\n  exit")).unwrap();
            let mut before = seeded(&inp, true);
            before.regfile_mut().write(K, 1, 0x4000_0000);
            before
                .regfile_mut()
                .write_pred(K, 1, !guard.starts_with("@!"));
            let run = |reference: bool| {
                let mut cpu = before.clone();
                cpu.load_program(&program).unwrap();
                let err = if reference {
                    cpu.run_reference(RunOptions::default())
                } else {
                    cpu.run(RunOptions::default())
                }
                .unwrap_err();
                (err, machine_state(&cpu), cpu.shared().stats())
            };
            let (fast, oracle) = (run(false), run(true));
            assert_eq!(fast, oracle, "`{guard}{line}`");
            assert_eq!(
                fast.0,
                ExecError::SharedOutOfBounds {
                    pc: 0,
                    thread: K,
                    addr: 0x4000_0003,
                    size: before.shared().words(),
                }
            );
            let (old, new) = (before.regfile().gather(rd), &fast.1 .0[rd as usize]);
            assert_eq!(
                new[K..],
                old[K..],
                "`{guard}{line}`: lanes from K up untouched"
            );
            assert_ne!(new[..K], old[..K], "`{guard}{line}`: lanes below K loaded");
        }
    }
}

/// Run `src` (plus an `exit`) from the state `before` on one interpreter.
fn run_from(
    before: &Processor,
    src: &str,
    reference: bool,
) -> (Result<ExecStats, ExecError>, Processor) {
    let mut cpu = before.clone();
    cpu.load_program(&assemble(&format!("  {src}\n  exit")).unwrap())
        .unwrap();
    let result = run_on(&mut cpu, reference);
    (result, cpu)
}

/// Everything a run leaves behind: every register and predicate, shared
/// memory and its port statistics (which, after a trap, count the lanes
/// served before it).
fn left_behind(cpu: &Processor) -> impl PartialEq + Debug {
    (
        machine_state(cpu),
        cpu.shared().as_slice().to_vec(),
        cpu.shared().stats(),
    )
}

#[test]
fn address_pattern_fast_paths_match_per_lane_execution() {
    // Unguarded unit-stride and broadcast address columns take a bulk
    // copy / fill on the predecoded path. Every edge of that selection —
    // the last window that fits, one word past it, `ra + imm` wrapping
    // `u32`, `rd == ra`, guards, `.tk` scales, a one-lane active set —
    // must leave exactly what the reference interpreter's per-lane loop
    // leaves: same values, same trap, same lanes served before the trap,
    // same `SharedMemStats`.
    const WORDS: usize = 1024; // ProcessorConfig::small()
    const TOP: usize = WORDS - N; // first word of the last window that fits
    let inp = inputs(0xFA57);
    let before = seeded(&inp, false);
    let trap = |pc, thread, addr| {
        Some(ExecError::SharedOutOfBounds {
            pc,
            thread,
            addr,
            size: WORDS,
        })
    };
    // The last lane's guard decides whether a guarded window one word
    // too far traps at all.
    let last_if = |passes: bool| if passes { trap(1, N - 1, WORDS) } else { None };
    let cases: Vec<(String, Option<ExecError>)> = vec![
        // (a) The window ends exactly at the last word: no trap.
        (format!("stid r4\n lds r7, [r4+{TOP}]"), None),
        (format!("stid r4\n sts [r4+{TOP}], r1"), None),
        (format!("movi r4, {}\n lds r7, [r4+0]", WORDS - 1), None),
        (format!("movi r4, {}\n sts [r4+0], r1", WORDS - 1), None),
        // (b) One word further: the last lane of a ramp traps with the
        // lanes below it served; every lane of a broadcast would, so
        // lane 0 does.
        (
            format!("stid r4\n lds r7, [r4+{}]", TOP + 1),
            trap(1, N - 1, WORDS),
        ),
        (
            format!("stid r4\n sts [r4+{}], r1", TOP + 1),
            trap(1, N - 1, WORDS),
        ),
        (
            format!("movi r4, {WORDS}\n lds r7, [r4+0]"),
            trap(1, 0, WORDS),
        ),
        (
            format!("movi r4, {WORDS}\n sts [r4+0], r1"),
            trap(1, 0, WORDS),
        ),
        // (c) `ra + imm` wraps u32 back into bounds (a ramp from word 0);
        // without the immediate the ramp itself crosses the wrap, and
        // its first lane is far out of bounds.
        ("stid r4\n addi r4, r4, -16\n lds r7, [r4+16]".into(), None),
        ("stid r4\n addi r4, r4, -16\n sts [r4+16], r1".into(), None),
        (
            "stid r4\n addi r4, r4, -16\n lds r7, [r4+0]".into(),
            trap(2, 0, 0xFFFF_FFF0),
        ),
        (
            "stid r4\n addi r4, r4, -16\n sts [r4+0], r1".into(),
            trap(2, 0, 0xFFFF_FFF0),
        ),
        // (d) The destination is the address register.
        ("stid r4\n lds r4, [r4+100]".into(), None),
        ("movi r4, 5\n lds r4, [r4+0]".into(), None),
        (
            format!("stid r4\n lds r4, [r4+{}]", TOP + 1),
            trap(1, N - 1, WORDS),
        ),
        // (e) Guarded and scaled variants of (a) and (b).
        (format!("stid r4\n @p1 lds r7, [r4+{TOP}]"), None),
        (format!("stid r4\n @!p1 sts [r4+{TOP}], r1"), None),
        (
            format!("stid r4\n @p1 lds r7, [r4+{}]", TOP + 1),
            last_if(inp.p[N - 1]),
        ),
        (
            format!("stid r4\n @!p1 sts [r4+{}], r1", TOP + 1),
            last_if(!inp.p[N - 1]),
        ),
        (format!("stid r4\n lds.t1 r7, [r4+{}]", TOP + 1), None),
        (format!("stid r4\n sts.t1 [r4+{}], r1", TOP + 1), None),
        (
            format!("stid r4\n lds.t1 r7, [r4+{}]", WORDS - N / 2 + 1),
            trap(1, N / 2 - 1, WORDS),
        ),
        (format!("stid r4\n @p1 lds.t1 r7, [r4+{}]", TOP + 1), None),
        ("movi r4, 9\n @p1 lds r7, [r4+0]".into(), None),
        // (f) One active lane (48 >> 6 floors at 1).
        (format!("stid r4\n lds.t6 r7, [r4+{}]", WORDS - 1), None),
        (format!("stid r4\n sts.t6 [r4+{}], r1", WORDS - 1), None),
        (
            format!("stid r4\n lds.t6 r7, [r4+{WORDS}]"),
            trap(1, 0, WORDS),
        ),
        (
            format!("stid r4\n sts.t6 [r4+{WORDS}], r1"),
            trap(1, 0, WORDS),
        ),
    ];
    for (src, want) in &cases {
        let [(fast, fast_cpu), (oracle, oracle_cpu)] =
            INTERPRETERS.map(|(_, reference)| run_from(&before, src, reference));
        assert_eq!(fast, oracle, "`{src}`");
        assert_eq!(left_behind(&fast_cpu), left_behind(&oracle_cpu), "`{src}`");
        // The trap is also held against this table, not only against
        // the other interpreter.
        assert_eq!(fast.err(), *want, "`{src}`");
    }

    // And against values worked out here, for the plain (a)/(b) rows.
    let (shared, run) = (pattern(), |src: &str| run_from(&before, src, false));
    let (result, cpu) = run(&format!("stid r4\n lds r7, [r4+{TOP}]"));
    assert_eq!(result.unwrap().mem.reads, N as u64);
    assert_eq!(cpu.regfile().gather(7), &shared[TOP..]);
    let (result, cpu) = run(&format!("stid r4\n lds r7, [r4+{}]", TOP + 1));
    assert!(result.is_err());
    assert_eq!(cpu.shared().stats().reads, N as u64 - 1);
    assert_eq!(cpu.regfile().gather(7)[..N - 1], shared[TOP + 1..]);
    assert_eq!(
        cpu.regfile().gather(7)[N - 1],
        0,
        "the trapping lane keeps r7"
    );
    let (result, cpu) = run(&format!("movi r4, {}\n lds r7, [r4+0]", WORDS - 1));
    assert_eq!(result.unwrap().mem.reads, N as u64);
    assert_eq!(cpu.regfile().gather(7), vec![shared[WORDS - 1]; N]);
    let (result, cpu) = run(&format!("stid r4\n sts [r4+{TOP}], r1"));
    assert_eq!(result.unwrap().mem.writes, N as u64);
    assert_eq!(cpu.shared().as_slice()[TOP..], inp.a[..]);
    assert_eq!(cpu.shared().as_slice()[..TOP], shared[..TOP]);
    let (result, cpu) = run(&format!("stid r4\n sts [r4+{}], r1", TOP + 1));
    assert!(result.is_err());
    assert_eq!(cpu.shared().stats().writes, N as u64 - 1);
    assert_eq!(cpu.shared().as_slice()[TOP + 1..], inp.a[..N - 1]);
    // A broadcast store streams through the one write port in thread
    // order: the highest thread's value is what stays.
    let (result, cpu) = run(&format!("movi r4, {}\n sts [r4+0], r1", WORDS - 1));
    assert_eq!(result.unwrap().mem.writes, N as u64);
    assert_eq!(cpu.shared().as_slice()[WORDS - 1], inp.a[N - 1]);
}

#[test]
fn every_opcode_is_covered_by_this_matrix() {
    // Meta-test: the groups above must collectively touch all 61.
    let covered: std::collections::HashSet<Opcode> = [
        // arithmetic
        Opcode::Add,
        Opcode::Sub,
        Opcode::Min,
        Opcode::Max,
        Opcode::Abs,
        Opcode::Neg,
        Opcode::Sad,
        Opcode::Addi,
        Opcode::Subi,
        // multiplier
        Opcode::MulLo,
        Opcode::MulHi,
        Opcode::MuluHi,
        Opcode::MadLo,
        Opcode::MadHi,
        Opcode::Muli,
        // logic
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Not,
        Opcode::Cnot,
        Opcode::Andi,
        Opcode::Ori,
        Opcode::Xori,
        Opcode::Popc,
        Opcode::Clz,
        Opcode::Brev,
        // shifts
        Opcode::Shl,
        Opcode::Lsr,
        Opcode::Asr,
        Opcode::Shli,
        Opcode::Lsri,
        Opcode::Asri,
        // fixed point
        Opcode::SatAdd,
        Opcode::SatSub,
        Opcode::MulShr,
        Opcode::ShAdd,
        Opcode::Bfe,
        Opcode::Rotri,
        // compare/select
        Opcode::SetpEq,
        Opcode::SetpNe,
        Opcode::SetpLt,
        Opcode::SetpLe,
        Opcode::SetpGt,
        Opcode::SetpGe,
        Opcode::SetpLtu,
        Opcode::SetpGeu,
        Opcode::Selp,
        // moves
        Opcode::Mov,
        Opcode::Movi,
        Opcode::Stid,
        Opcode::Sntid,
        // memory
        Opcode::Lds,
        Opcode::Sts,
        // control
        Opcode::Bra,
        Opcode::Brp,
        Opcode::Call,
        Opcode::Ret,
        Opcode::Loop,
        Opcode::Exit,
        Opcode::Nop,
        Opcode::Bar,
    ]
    .into_iter()
    .collect();
    for &op in Opcode::ALL {
        assert!(covered.contains(&op), "{op:?} not covered by the matrix");
    }
    assert_eq!(covered.len(), 61);
}
