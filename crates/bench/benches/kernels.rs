//! Backend kernel comparison at GNN-realistic matmul shapes.
//!
//! Emits `BENCH_kernels.json` at the workspace root so the perf
//! trajectory of the compute backends is recorded PR over PR.
//!
//! Run with `cargo bench -p moss-bench --bench kernels`.
//!
//! `MOSS_BENCH_OUT=path` redirects the JSON report (so `cargo xtask
//! bench-check` can compare a fresh run against the committed baseline
//! without overwriting it) and `MOSS_BENCH_QUICK=1` shrinks the timing
//! budgets for a fast regression-gate run.

use std::time::Duration;

use moss_benchkit::Suite;
use moss_tensor::backend::{configured_threads, Backend};
use moss_tensor::{Blocked, Naive, Parallel, Tensor};

/// A per-cluster GNN update and a full design-level batch.
const SHAPES: &[(usize, usize, usize)] = &[(256, 16, 16), (2048, 64, 64)];

/// An input-gradient shape the pretrain backward runs: a level's rows times
/// a 32-wide weight.
const TRAINING_A_BT: (usize, usize, usize) = (80, 32, 32);

/// The size-based auto dispatch exercised at the bench shapes (what
/// `Tensor::matmul` runs when `MOSS_BACKEND` is unset).
#[derive(Debug)]
struct Auto;

impl Backend for Auto {
    fn name(&self) -> &'static str {
        "auto"
    }
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        moss_tensor::for_flops(a.rows() * a.cols() * b.cols()).matmul(a, b)
    }
    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        moss_tensor::for_flops(a.rows() * a.cols() * b.cols()).matmul_at_b(a, b)
    }
}

/// The backward-pass form for input gradients: `g (m×n) · bᵀ` with `b`
/// the `k×n` weight, giving `m×k`.
fn bench_a_bt(
    suite: &mut Suite,
    name: &str,
    backend: &dyn Backend,
    (m, k, n): (usize, usize, usize),
) {
    let g = Tensor::xavier(m, n, 3);
    let b = Tensor::xavier(k, n, 4);
    suite.bench_with_flops(
        &format!("matmul_a_bt/{name}/{m}x{k}x{n}"),
        (2 * m * k * n) as u64,
        || {
            std::hint::black_box(backend.matmul_a_bt(&g, &b));
        },
    );
}

fn main() {
    let mut suite = Suite::new("kernels");
    if std::env::var("MOSS_BENCH_QUICK").is_ok_and(|v| v == "1") {
        suite = suite.with_budget(Duration::from_millis(50), Duration::from_millis(200));
    }
    let parallel = Parallel::new();
    let backends: [(&str, &dyn Backend); 4] = [
        ("naive", &Naive),
        ("blocked", &Blocked),
        ("parallel", &parallel),
        ("auto", &Auto),
    ];
    eprintln!("threads for parallel backend: {}", configured_threads());
    // Spawn the pool and run SIMD feature detection before any timing
    // starts, so no bench row inherits one-time setup cost.
    moss_tensor::pool::warm_up();

    for &(m, k, n) in SHAPES {
        let a = Tensor::xavier(m, k, 1);
        let b = Tensor::xavier(k, n, 2);
        let flops = (2 * m * k * n) as u64;
        for (name, backend) in backends {
            suite.bench_with_flops(&format!("matmul/{name}/{m}x{k}x{n}"), flops, || {
                std::hint::black_box(backend.matmul(&a, &b));
            });
        }
        // The backward-pass form that dominates weight-gradient time.
        let g = Tensor::xavier(m, n, 3);
        for (name, backend) in backends {
            suite.bench_with_flops(&format!("matmul_at_b/{name}/{m}x{k}x{n}"), flops, || {
                std::hint::black_box(backend.matmul_at_b(&a, &g));
            });
        }
        for (name, backend) in backends {
            bench_a_bt(&mut suite, name, backend, (m, k, n));
        }
    }
    bench_a_bt(&mut suite, "auto", &Auto, TRAINING_A_BT);

    let out = std::env::var("MOSS_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    suite.write_json(&out).expect("write kernels bench JSON");
}
