//! The pool determinism matrix from ISSUE 6: every kernel the `Parallel`
//! backend routes through the work-stealing pool must produce
//! **bit-identical** outputs across `MOSS_THREADS` ∈ {1, 2, 4, 8}, because
//! work decomposition is a function of shape alone and every output
//! element has exactly one writer.
//!
//! The teardown contract (no lingering worker threads) lives in
//! `pool_teardown.rs`: it counts the process's threads, so it needs a test
//! binary of its own.

use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};
use moss_tensor::backend::Backend;
use moss_tensor::{Parallel, Tensor};

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-2.0f32..2.0))
        .collect();
    Tensor::from_vec(data, rows, cols)
}

/// Shapes chosen to clear every parallel threshold and to straddle block
/// boundaries (odd sizes leave row/column tails in every kernel).
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![(257, 65, 90), (300, 80, 70), (1024, 33, 48)]
}

#[test]
fn matmul_is_bit_identical_across_the_thread_matrix() {
    for (m, k, n) in shapes() {
        let a = random_tensor(m, k, 1);
        let b = random_tensor(k, n, 2);
        let reference = Parallel::with_threads(THREAD_MATRIX[0]).matmul(&a, &b);
        for &threads in &THREAD_MATRIX[1..] {
            let got = Parallel::with_threads(threads).matmul(&a, &b);
            assert!(
                reference.data() == got.data(),
                "matmul {m}x{k}x{n} drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn backward_matmul_forms_are_bit_identical_across_the_thread_matrix() {
    for (m, k, n) in shapes() {
        let a = random_tensor(m, k, 3);
        let grad = random_tensor(m, n, 4);
        let bt = random_tensor(k, n, 5); // grad(m×n) × btᵀ → m×k
        let ref_at_b = Parallel::with_threads(1).matmul_at_b(&a, &grad);
        let ref_a_bt = Parallel::with_threads(1).matmul_a_bt(&grad, &bt);
        for &threads in &THREAD_MATRIX[1..] {
            let p = Parallel::with_threads(threads);
            assert!(
                ref_at_b.data() == p.matmul_at_b(&a, &grad).data(),
                "matmul_at_b {m}x{k}x{n} drifted at {threads} threads"
            );
            assert!(
                ref_a_bt.data() == p.matmul_a_bt(&grad, &bt).data(),
                "matmul_a_bt {m}x{k}x{n} drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn reductions_and_elementwise_are_bit_identical_across_the_thread_matrix() {
    let wide = random_tensor(3, 40_000, 6); // past PAR_ELEMWISE_MIN / SUM_BLOCK
    let tall = random_tensor(700, 33, 7); // many ROW_BLOCK partials
    let one = Parallel::with_threads(1);
    for &threads in &THREAD_MATRIX[1..] {
        let p = Parallel::with_threads(threads);
        assert_eq!(
            one.col_sums(&tall),
            p.col_sums(&tall),
            "col_sums drifted at {threads} threads"
        );
        assert_eq!(
            one.sum(&wide).to_bits(),
            p.sum(&wide).to_bits(),
            "sum drifted at {threads} threads"
        );
        assert!(
            one.map(&wide, &|x| x.mul_add(1.5, 0.25)).data()
                == p.map(&wide, &|x| x.mul_add(1.5, 0.25)).data(),
            "map drifted at {threads} threads"
        );
        assert!(
            one.zip_map(&wide, &wide, &|x, y| x * y + 0.5).data()
                == p.zip_map(&wide, &wide, &|x, y| x * y + 0.5).data(),
            "zip_map drifted at {threads} threads"
        );
    }
}
