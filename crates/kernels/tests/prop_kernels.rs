//! Property tests: every kernel is bit-exact against its host reference
//! on random inputs and shapes — including the IR frontends compiled
//! through the full `simt-compiler` pipeline (loop-carried SSA, LICM,
//! store forwarding), which must never change a result.

use proptest::prelude::*;
use simt_compiler::{compile, OptLevel};
use simt_core::{ProcessorConfig, RunOptions};
use simt_kernels::harness::run_program;
use simt_kernels::qformat::{as_i32, as_words};
use simt_kernels::{fir, iir, matmul, qformat, reduce, scan, sobel, vector, workload};

fn arb_i32_vec(n: usize) -> impl Strategy<Value = Vec<i32>> {
    proptest::collection::vec(any::<i32>(), n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn saxpy_random(a in any::<i32>(), seed in 0u64..1000) {
        let x = workload::wide_int_vector(128, seed);
        let y = workload::wide_int_vector(128, seed + 1);
        let (got, _) = vector::saxpy(a, &x, &y).unwrap();
        prop_assert_eq!(got, vector::saxpy_ref(a, &x, &y));
    }

    #[test]
    fn scale_random(shift in 0u32..40, x in arb_i32_vec(64)) {
        let (got, _) = vector::scale(shift, &x).unwrap();
        prop_assert_eq!(got, vector::scale_ref(shift, &x));
    }

    #[test]
    fn satadd_random(x in arb_i32_vec(48), y in arb_i32_vec(48)) {
        let (got, _) = vector::sat_add(&x, &y).unwrap();
        prop_assert_eq!(got, vector::sat_add_ref(&x, &y));
    }

    #[test]
    fn dot_random(log_n in 1u32..=10, seed in 0u64..500) {
        let n = 1usize << log_n;
        let x = workload::wide_int_vector(n, seed);
        let y = workload::wide_int_vector(n, seed + 7);
        let (got, _) = reduce::dot_scaled(&x, &y).unwrap();
        prop_assert_eq!(got, reduce::dot_ref(&x, &y));
    }

    #[test]
    fn scan_random(log_n in 1u32..=10, seed in 0u64..500) {
        let n = 1usize << log_n;
        let x = workload::wide_int_vector(n, seed);
        let (got, _) = scan::scan(&x).unwrap();
        prop_assert_eq!(got, scan::scan_ref(&x));
    }

    #[test]
    fn fir_random(taps in 1usize..=24, seed in 0u64..500) {
        let n = 96;
        let h = workload::q15_signal(taps, seed + 3);
        let x = workload::q15_signal(n + taps - 1, seed);
        let (got, _) = fir::fir(&x, &h, n).unwrap();
        prop_assert_eq!(got, fir::fir_ref(&x, &h, n));
    }

    #[test]
    fn matmul_random(m in 1usize..=8, k in 1usize..=12, log_n in 1u32..=4, seed in 0u64..500) {
        let n = 1usize << log_n;
        prop_assume!(m * n <= 1024);
        let a = workload::q15_matrix(m, k, seed);
        let b = workload::q15_matrix(k, n, seed + 1);
        let (got, _) = matmul::matmul(&a, &b, m, k, n).unwrap();
        prop_assert_eq!(got, matmul::matmul_ref(&a, &b, m, k, n));
    }

    #[test]
    fn iir_random(n in 1usize..=32, m in 1usize..=24, seed in 0u64..500) {
        let q = iir::Biquad::lowpass();
        let mut x = vec![0i32; n * m];
        for (i, v) in workload::q15_signal(n * m, seed).into_iter().enumerate() {
            x[i] = v;
        }
        let (got, _) = iir::iir(&x, n, m, q).unwrap();
        prop_assert_eq!(got, iir::iir_ref(&x, n, m, q));
    }

    #[test]
    fn sobel_random(log_w in 2u32..=5, ih in 2usize..=16, seed in 0u64..500) {
        let iw = 1usize << log_w;
        prop_assume!(iw * ih <= 1024);
        let img: Vec<i32> = workload::int_vector((iw + 2) * (ih + 2), seed);
        let (got, _) = sobel::sobel(&img, iw, ih).unwrap();
        prop_assert_eq!(got, sobel::sobel_ref(&img, iw, ih));
    }

    #[test]
    fn q15_mul_matches_mulshr_semantics(a in any::<i32>(), b in any::<i32>()) {
        let host = qformat::q15_mul(a, b);
        let full = ((a as i64) * (b as i64)) >> 15;
        prop_assert_eq!(host, full as i32);
    }

    #[test]
    fn matmul_ir_random(m in 1usize..=8, k in 1usize..=12, log_n in 1u32..=4, seed in 0u64..500) {
        let n = 1usize << log_n;
        prop_assume!(m * n <= 1024);
        let a = workload::q15_matrix(m, k, seed);
        let b = workload::q15_matrix(k, n, seed + 1);
        let cfg = ProcessorConfig::default()
            .with_threads(m * n)
            .with_shared_words(8192);
        let compiled = compile(&matmul::matmul_ir(m, k, n), &cfg, OptLevel::Full).unwrap();
        let r = run_program(
            cfg,
            &compiled.program,
            &[(matmul::A_OFF, &as_words(&a)), (matmul::B_OFF, &as_words(&b))],
            matmul::C_OFF,
            m * n,
            RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(as_i32(&r.output), matmul::matmul_ref(&a, &b, m, k, n));
    }

    #[test]
    fn iir_ir_random(n in 1usize..=32, m in 1usize..=24, seed in 0u64..500) {
        let q = iir::Biquad::lowpass();
        let x = workload::q15_signal(n * m, seed);
        let cfg = ProcessorConfig::default()
            .with_threads(n)
            .with_shared_words(8192);
        let compiled = compile(&iir::iir_ir(n, m, q), &cfg, OptLevel::Full).unwrap();
        let r = run_program(
            cfg,
            &compiled.program,
            &[(iir::X_OFF, &as_words(&x))],
            iir::Y_OFF,
            n * m,
            RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(as_i32(&r.output), iir::iir_ref(&x, n, m, q));
    }

    // Fixed-point property for the new passes: LICM + the load/store
    // schedule run inside `optimize()`, and the optimized lowering of
    // the fir/reduce families must stay bit-exact against the host
    // references for every shape — reordering never changes results.
    #[test]
    fn fir_ir_full_pipeline_is_fixed_point(taps in 1usize..=24, seed in 0u64..500) {
        let n = 96;
        let h = workload::q15_signal(taps, seed + 3);
        let x = workload::q15_signal(n + taps - 1, seed);
        let cfg = ProcessorConfig::default()
            .with_threads(n)
            .with_shared_words(8192);
        let compiled = compile(&fir::fir_ir(taps), &cfg, OptLevel::Full).unwrap();
        let r = run_program(
            cfg,
            &compiled.program,
            &[(fir::X_OFF, &as_words(&x)), (fir::H_OFF, &as_words(&h))],
            fir::Y_OFF,
            n,
            RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(as_i32(&r.output), fir::fir_ref(&x, &h, n));
    }

    #[test]
    fn reduce_ir_full_pipeline_is_fixed_point(log_n in 1u32..=10, seed in 0u64..500) {
        let n = 1usize << log_n;
        let x = workload::wide_int_vector(n, seed);
        let y = workload::wide_int_vector(n, seed + 7);
        let cfg = ProcessorConfig::default()
            .with_threads(n)
            .with_shared_words(4096);
        // Scaled-tree dot product through the full pipeline.
        let compiled = compile(&reduce::dot_ir(n), &cfg, OptLevel::Full).unwrap();
        let r = run_program(
            cfg.clone(),
            &compiled.program,
            &[(reduce::X_OFF, &as_words(&x)), (reduce::Y_OFF, &as_words(&y))],
            reduce::SCRATCH,
            1,
            RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(r.output[0] as i32, reduce::dot_ref(&x, &y));
        // Scaled-tree sum likewise.
        let compiled = compile(&reduce::sum_ir(n), &cfg, OptLevel::Full).unwrap();
        let r = run_program(
            cfg,
            &compiled.program,
            &[(reduce::X_OFF, &as_words(&x))],
            reduce::SCRATCH,
            1,
            RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(r.output[0] as i32, reduce::sum_ref(&x));
    }
}
