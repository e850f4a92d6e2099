//! Pluggable compute backends for the dense kernels.
//!
//! Every numeric op the autograd tape records — matmuls (forward and both
//! backward forms), elementwise zip/map, and row reductions — dispatches
//! through the [`Backend`] trait instead of hand-rolled loops, giving the
//! workspace a single seam for kernel experiments without touching model
//! code.
//!
//! Three implementations ship today:
//!
//! - [`Naive`] — the original reference loops, kept as the oracle every
//!   other backend is tested against;
//! - [`Blocked`] — sequential calls into the [`crate::simd`] register-tile
//!   microkernels (runtime-dispatched AVX-512 / AVX2+FMA / portable
//!   8-wide lane arrays);
//! - [`Parallel`] — the same microkernels with row blocks submitted to the
//!   persistent work-stealing pool in [`crate::pool`] (this workspace
//!   builds offline, so no rayon; see DESIGN.md §11), behind the
//!   on-by-default `parallel` cargo feature. Thread count comes from
//!   `MOSS_THREADS`, else `available_parallelism`. Below the size
//!   thresholds it runs the [`Blocked`] path inline, so `parallel` never
//!   loses to `blocked` on small problems.
//!
//! ## Determinism
//!
//! Seeded experiment reproducibility is a correctness property here, so
//! every backend guarantees **bit-identical results across thread counts**:
//! each matmul output element is accumulated by exactly one worker in a
//! fixed order along the shared dimension, and cross-row reductions
//! ([`Backend::col_sums`], [`Backend::sum`]) combine fixed-size block
//! partials in block order — the grouping depends only on the input shape,
//! never on `MOSS_THREADS`. (Across *SIMD levels* the FMA paths differ from
//! [`Naive`] by ~1e-6 relative; the scalar level is bit-identical to it.
//! See [`crate::simd`].)
//!
//! The active backend is process-global: [`active`] reads `MOSS_BACKEND`
//! (`naive` | `blocked` | `parallel` | `auto`) once, defaulting to
//! size-based auto dispatch ([`for_flops`]) when unset or `auto`.

use std::fmt;
use std::sync::OnceLock;

use crate::pool::{self, ThreadPool};
use crate::simd;
use crate::tensor::Tensor;

/// Rows per unit of parallel work distribution. A fixed constant (never
/// derived from the thread count) so work decomposition — and therefore
/// floating-point grouping in reductions — is identical for any
/// `MOSS_THREADS`.
const ROW_BLOCK: usize = 64;

/// Output rows (columns of `a`) per `aᵀ×b` task. The shared `m` dimension
/// is long in the backward pass, so even a small `k` yields enough blocks
/// to keep workers busy; fixed for the same determinism reason.
const AT_B_ROW_BLOCK: usize = 8;

/// Elements per partial in flat reductions; fixed for the same reason.
const SUM_BLOCK: usize = 4096;

/// Below this `m·k·n`, matmuls run sequentially even on [`Parallel`]:
/// with the SIMD kernels a 1M-flop multiply takes ~10µs, the same order
/// as a pool dispatch, so splitting it cannot win.
const PAR_MATMUL_MIN_FLOPS: usize = 1_048_576;

/// Below this element count, elementwise ops run sequentially.
const PAR_ELEMWISE_MIN: usize = 65_536;

/// A dense-kernel provider.
///
/// Implementations must be mathematically equivalent; [`Naive`] is the
/// reference. `crates/tensor/tests/backend_equivalence.rs` enforces
/// agreement within 1e-5 on random shapes and exact determinism across
/// thread counts.
pub trait Backend: fmt::Debug + Send + Sync {
    /// Short identifier (`"naive"`, `"blocked"`, `"parallel"`).
    fn name(&self) -> &'static str;

    /// `a × b`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor;

    /// `aᵀ × b` — the backward-pass form for weight gradients
    /// (`dB = Aᵀ·dC`), kept separate so backends can skip materializing
    /// the transpose.
    ///
    /// # Panics
    ///
    /// Panics if row counts disagree.
    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.matmul(&a.transpose(), b)
    }

    /// `a × bᵀ` — the backward-pass form for input gradients
    /// (`dA = dC·Bᵀ`). Every backend runs it as `matmul(a, bᵀ)`: `b` is
    /// the small operand there (a weight), so the transpose is cheap next
    /// to the product, which then runs on the forward matmul tile.
    ///
    /// # Panics
    ///
    /// Panics if column counts disagree.
    fn matmul_a_bt(&self, a: &Tensor, b: &Tensor) -> Tensor {
        self.matmul(a, &b.transpose())
    }

    /// Elementwise binary map.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn zip_map(&self, a: &Tensor, b: &Tensor, f: &(dyn Fn(f32, f32) -> f32 + Sync)) -> Tensor {
        assert_eq!(a.shape(), b.shape(), "elementwise shape mismatch");
        let data = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| f(x, y))
            .collect();
        Tensor::from_vec(data, a.rows(), a.cols())
    }

    /// Elementwise unary map.
    fn map(&self, a: &Tensor, f: &(dyn Fn(f32) -> f32 + Sync)) -> Tensor {
        let data = a.data().iter().map(|&x| f(x)).collect();
        Tensor::from_vec(data, a.rows(), a.cols())
    }

    /// Per-column sums (an `n×d → d` reduction over rows).
    fn col_sums(&self, a: &Tensor) -> Vec<f32> {
        let (n, d) = a.shape();
        let mut out = vec![0.0f32; d];
        for r in 0..n {
            for (acc, &v) in out.iter_mut().zip(a.row_slice(r)) {
                *acc += v;
            }
        }
        out
    }

    /// Sum of all elements.
    fn sum(&self, a: &Tensor) -> f32 {
        a.data().iter().sum()
    }
}

fn assert_matmul_shapes(a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul shape mismatch: {}×{} × {}×{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Reference kernel: the original `Tensor::matmul` i-k-j loops, with the
/// skip for zero coefficients (circuit one-hot features are mostly zeros).
fn matmul_reference_row(a_row: &[f32], b: &Tensor, out_row: &mut [f32]) {
    let n = b.cols();
    for (k, &coeff) in a_row.iter().enumerate() {
        if coeff == 0.0 {
            continue;
        }
        let b_row = &b.data()[k * n..(k + 1) * n];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += coeff * bv;
        }
    }
}

/// The original single-threaded loops, kept verbatim as the oracle that
/// [`Blocked`] and [`Parallel`] are verified against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl Backend for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_matmul_shapes(a, b);
        let (m, k) = a.shape();
        let n = b.cols();
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n.max(1)).enumerate().take(m) {
            matmul_reference_row(&a.data()[i * k..(i + 1) * k], b, out_row);
        }
        Tensor::from_vec(out, m, n)
    }
}

/// Sequential register-tile SIMD kernels — see [`crate::simd`] for the
/// tile shapes and the per-level numerics contract.
///
/// `a×b` and `aᵀ×b` run dense microkernels (`aᵀ` is never materialized);
/// `a×bᵀ` is `a×b` with `b` transposed. On the scalar SIMD level the
/// per-element accumulation order is exactly [`Naive`]'s, so the two agree
/// bit-for-bit; the FMA levels agree to ~1e-6 relative.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

impl Backend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_matmul_shapes(a, b);
        let (m, k) = a.shape();
        let n = b.cols();
        if m * k * n == 0 {
            return Tensor::zeros(m, n);
        }
        let mut out = vec![0.0f32; m * n];
        simd::matmul_block(a.data(), m, k, b.data(), n, &mut out);
        Tensor::from_vec(out, m, n)
    }

    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_at_b shape mismatch: ({}×{})ᵀ × {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (m, k) = a.shape();
        let n = b.cols();
        if m * k * n == 0 {
            return Tensor::zeros(k, n);
        }
        let mut out = vec![0.0f32; k * n];
        simd::matmul_at_b_block(a.data(), m, k, 0, k, b.data(), n, &mut out);
        Tensor::from_vec(out, k, n)
    }
}

/// Pool-submitting kernels: row blocks of the [`crate::simd`] microkernels
/// distributed over the persistent work-stealing pool.
///
/// Sequential (the [`Blocked`] path, inline on the caller) below the size
/// thresholds — a pool dispatch costs a few microseconds, so small ops
/// never pay it — and identical per-element arithmetic above them: each
/// output element is produced wholly by one task, so results are
/// bit-identical for any thread count, including 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parallel {
    threads: Option<usize>,
}

impl Parallel {
    /// Thread count from `MOSS_THREADS` / `available_parallelism`.
    pub const fn new() -> Parallel {
        Parallel { threads: None }
    }

    /// A backend pinned to exactly `n` threads (used by the determinism
    /// tests); the pool for each pinned count is created on first use.
    pub const fn with_threads(n: usize) -> Parallel {
        Parallel { threads: Some(n) }
    }

    fn pool(&self) -> &'static ThreadPool {
        match self.threads {
            Some(n) => pool::with_threads(n),
            None => pool::global(),
        }
    }
}

/// The process-wide worker count: `MOSS_THREADS` if set to a positive
/// integer, else `std::thread::available_parallelism`.
pub fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("MOSS_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// A raw pointer that may cross thread boundaries. Safety is argued at
/// each use site: tasks write disjoint regions, and the pool's completion
/// protocol orders every write before the submitter reads.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(self) -> *mut T {
        self.0
    }
}

/// `(0..n).map(f)` over the pool, results in index order regardless of
/// which worker ran which index. Falls back to a plain sequential map when
/// the pool has no workers or there is only one item.
fn pool_map_indexed<U, F>(pool: &ThreadPool, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // No zero-worker/short-circuit here: `run_indexed` runs inline (in
    // index order) on a worker-less pool and keeps the obs traffic
    // counters accurate either way.
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let slots = SendPtr(out.as_mut_ptr());
    // SAFETY: each index writes exactly one distinct slot, the slot's old
    // value is `None` (nothing to drop), and `run_indexed` returns only
    // after every task's writes are visible to this thread.
    pool.run_indexed(n, &move |i| unsafe { slots.get().add(i).write(Some(f(i))) });
    out.into_iter()
        .map(|v| v.expect("pool ran every index"))
        .collect()
}

impl Backend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn matmul(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_matmul_shapes(a, b);
        let (m, k) = a.shape();
        let n = b.cols();
        if m * k * n == 0 {
            return Tensor::zeros(m, n);
        }
        if m * k * n < PAR_MATMUL_MIN_FLOPS || m <= ROW_BLOCK {
            return Blocked.matmul(a, b);
        }
        let pool = self.pool();
        if pool.workers() == 0 {
            return Blocked.matmul(a, b);
        }
        let mut out = vec![0.0f32; m * n];
        let optr = SendPtr(out.as_mut_ptr());
        let (ad, bd) = (a.data(), b.data());
        // SAFETY: row block `blk` writes only rows r0..r1 of `out`;
        // blocks are disjoint and run_indexed orders writes before return.
        pool.run_indexed(m.div_ceil(ROW_BLOCK), &move |blk| {
            let r0 = blk * ROW_BLOCK;
            let r1 = (r0 + ROW_BLOCK).min(m);
            let ob =
                unsafe { std::slice::from_raw_parts_mut(optr.get().add(r0 * n), (r1 - r0) * n) };
            simd::matmul_block(&ad[r0 * k..r1 * k], r1 - r0, k, bd, n, ob);
        });
        Tensor::from_vec(out, m, n)
    }

    fn matmul_at_b(&self, a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(
            a.rows(),
            b.rows(),
            "matmul_at_b shape mismatch: ({}×{})ᵀ × {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        let (m, k) = a.shape();
        let n = b.cols();
        if m * k * n == 0 {
            return Tensor::zeros(k, n);
        }
        if m * k * n < PAR_MATMUL_MIN_FLOPS || k <= AT_B_ROW_BLOCK {
            return Blocked.matmul_at_b(a, b);
        }
        let pool = self.pool();
        if pool.workers() == 0 {
            return Blocked.matmul_at_b(a, b);
        }
        let mut out = vec![0.0f32; k * n];
        let optr = SendPtr(out.as_mut_ptr());
        let (ad, bd) = (a.data(), b.data());
        // SAFETY: block `blk` writes only out rows i0..i1; disjoint.
        pool.run_indexed(k.div_ceil(AT_B_ROW_BLOCK), &move |blk| {
            let i0 = blk * AT_B_ROW_BLOCK;
            let i1 = (i0 + AT_B_ROW_BLOCK).min(k);
            let ob =
                unsafe { std::slice::from_raw_parts_mut(optr.get().add(i0 * n), (i1 - i0) * n) };
            simd::matmul_at_b_block(ad, m, k, i0, i1 - i0, bd, n, ob);
        });
        Tensor::from_vec(out, k, n)
    }

    fn zip_map(&self, a: &Tensor, b: &Tensor, f: &(dyn Fn(f32, f32) -> f32 + Sync)) -> Tensor {
        assert_eq!(a.shape(), b.shape(), "elementwise shape mismatch");
        let len = a.data().len();
        if len < PAR_ELEMWISE_MIN {
            return Blocked.zip_map(a, b, f);
        }
        let pool = self.pool();
        if pool.workers() == 0 {
            return Blocked.zip_map(a, b, f);
        }
        let mut out = vec![0.0f32; len];
        let optr = SendPtr(out.as_mut_ptr());
        let (ad, bd) = (a.data(), b.data());
        // SAFETY: disjoint SUM_BLOCK chunks; every element is independent,
        // so any partition is exact.
        pool.run_indexed(len.div_ceil(SUM_BLOCK), &move |blk| {
            let lo = blk * SUM_BLOCK;
            let hi = (lo + SUM_BLOCK).min(len);
            let chunk = unsafe { std::slice::from_raw_parts_mut(optr.get().add(lo), hi - lo) };
            for (j, o) in chunk.iter_mut().enumerate() {
                *o = f(ad[lo + j], bd[lo + j]);
            }
        });
        Tensor::from_vec(out, a.rows(), a.cols())
    }

    fn map(&self, a: &Tensor, f: &(dyn Fn(f32) -> f32 + Sync)) -> Tensor {
        let len = a.data().len();
        if len < PAR_ELEMWISE_MIN {
            return Blocked.map(a, f);
        }
        let pool = self.pool();
        if pool.workers() == 0 {
            return Blocked.map(a, f);
        }
        let mut out = vec![0.0f32; len];
        let optr = SendPtr(out.as_mut_ptr());
        let ad = a.data();
        // SAFETY: disjoint SUM_BLOCK chunks.
        pool.run_indexed(len.div_ceil(SUM_BLOCK), &move |blk| {
            let lo = blk * SUM_BLOCK;
            let hi = (lo + SUM_BLOCK).min(len);
            let chunk = unsafe { std::slice::from_raw_parts_mut(optr.get().add(lo), hi - lo) };
            for (j, o) in chunk.iter_mut().enumerate() {
                *o = f(ad[lo + j]);
            }
        });
        Tensor::from_vec(out, a.rows(), a.cols())
    }

    fn col_sums(&self, a: &Tensor) -> Vec<f32> {
        let (n, d) = a.shape();
        if n * d == 0 {
            return vec![0.0; d];
        }
        // Fixed-size row blocks → per-block partials → ordered fold. The
        // grouping depends only on the shape, so any thread count (and the
        // sequential path) produces bit-identical sums.
        let n_blocks = n.div_ceil(ROW_BLOCK);
        let partials = pool_map_indexed(self.pool(), n_blocks, |blk| {
            let lo = blk * ROW_BLOCK;
            let hi = (lo + ROW_BLOCK).min(n);
            let mut acc = vec![0.0f32; d];
            for r in lo..hi {
                for (s, &v) in acc.iter_mut().zip(a.row_slice(r)) {
                    *s += v;
                }
            }
            acc
        });
        let mut out = vec![0.0f32; d];
        for p in &partials {
            for (s, &v) in out.iter_mut().zip(p) {
                *s += v;
            }
        }
        out
    }

    fn sum(&self, a: &Tensor) -> f32 {
        let data = a.data();
        if data.is_empty() {
            return 0.0;
        }
        let n_blocks = data.len().div_ceil(SUM_BLOCK);
        let partials = pool_map_indexed(self.pool(), n_blocks, |blk| {
            let lo = blk * SUM_BLOCK;
            let hi = (lo + SUM_BLOCK).min(data.len());
            data[lo..hi].iter().sum::<f32>()
        });
        partials.iter().sum()
    }
}

/// Applies `f` to every item of `items` — over the global thread pool when
/// the `parallel` feature is on and the pool has workers — returning
/// results in input order.
///
/// This is the workspace-wide primitive for embarrassingly parallel loops
/// (per-circuit ground-truth generation, batched encoder forwards). `f`
/// receives `(index, &item)`; output order never depends on scheduling.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    pool_map_indexed(pool::global(), items.len(), |i| f(i, &items[i]))
}

static NAIVE: Naive = Naive;
static BLOCKED: Blocked = Blocked;
static PARALLEL: Parallel = Parallel::new();

fn default_backend() -> &'static dyn Backend {
    #[cfg(feature = "parallel")]
    {
        &PARALLEL
    }
    #[cfg(not(feature = "parallel"))]
    {
        &BLOCKED
    }
}

struct Selection {
    backend: &'static dyn Backend,
    /// `true` when `MOSS_BACKEND` names a concrete backend, which disables
    /// size-based dispatch in [`for_flops`].
    pinned: bool,
}

fn selection() -> &'static Selection {
    static SEL: OnceLock<Selection> = OnceLock::new();
    SEL.get_or_init(|| match std::env::var("MOSS_BACKEND").as_deref() {
        Ok("naive") => Selection {
            backend: &NAIVE,
            pinned: true,
        },
        Ok("blocked") => Selection {
            backend: &BLOCKED,
            pinned: true,
        },
        Ok("parallel") => Selection {
            backend: &PARALLEL,
            pinned: true,
        },
        Ok("auto") => Selection {
            backend: default_backend(),
            pinned: false,
        },
        Ok(other) => {
            panic!("unknown MOSS_BACKEND {other:?}; expected naive|blocked|parallel|auto")
        }
        Err(_) => Selection {
            backend: default_backend(),
            pinned: false,
        },
    })
}

/// The process-wide active backend.
///
/// Chosen once from `MOSS_BACKEND` (`naive` | `blocked` | `parallel` |
/// `auto`); unset (or `auto`) defaults to [`Parallel`] with the `parallel`
/// feature, [`Blocked`] without.
///
/// # Panics
///
/// Panics on an unrecognized `MOSS_BACKEND` value.
pub fn active() -> &'static dyn Backend {
    selection().backend
}

/// The backend to use for a problem of `flops ≈ m·k·n`: the pinned backend
/// when `MOSS_BACKEND` names one explicitly, otherwise [`Blocked`]
/// (sequential SIMD, zero dispatch overhead) below the parallel matmul
/// threshold and the default backend above it.
///
/// [`Parallel`] applies the same threshold internally, so the two dispatch
/// layers agree; this entry point just skips the per-call pool lookup for
/// ops known to be small.
pub fn for_flops(flops: usize) -> &'static dyn Backend {
    let sel = selection();
    if sel.pinned || flops >= PAR_MATMUL_MIN_FLOPS {
        sel.backend
    } else {
        &BLOCKED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arange(rows: usize, cols: usize, scale: f32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i * 2_654_435_761 % 1000) as f32 / 500.0 - 1.0) * scale)
            .collect();
        Tensor::from_vec(data, rows, cols)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!((x - y).abs() <= tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn backends_agree_on_matmul() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 4), (17, 9, 33), (70, 80, 90)] {
            let a = arange(m, k, 1.0);
            let b = arange(k, n, 0.5);
            let reference = Naive.matmul(&a, &b);
            assert_close(&Blocked.matmul(&a, &b), &reference, 1e-4, "blocked");
            assert_close(
                &Parallel::with_threads(3).matmul(&a, &b),
                &reference,
                1e-4,
                "parallel",
            );
        }
    }

    #[test]
    fn transposed_forms_match_explicit_transpose() {
        let a = arange(13, 7, 1.0);
        let b = arange(13, 5, 0.7);
        let reference = Naive.matmul(&a.transpose(), &b);
        for backend in [&Blocked as &dyn Backend, &Parallel::with_threads(2)] {
            assert_close(&backend.matmul_at_b(&a, &b), &reference, 1e-4, "at_b");
        }
        let c = arange(11, 7, 0.9);
        let reference = Naive.matmul(&a, &c.transpose());
        for backend in [&Blocked as &dyn Backend, &Parallel::with_threads(2)] {
            assert_close(&backend.matmul_a_bt(&a, &c), &reference, 1e-4, "a_bt");
        }
    }

    /// `a·bᵀ` runs on the forward tile, so at the scalar SIMD level it
    /// keeps [`Naive`]'s per-element arithmetic exactly; the FMA levels
    /// agree to rounding. Shapes cover tile tails, the training shapes and
    /// one above the pool threshold.
    #[test]
    fn a_bt_matches_naive_bit_for_bit_at_scalar_level() {
        let scalar = crate::simd::level() == crate::simd::Level::Scalar;
        for &(m, l, n) in &[
            (2, 3, 2),
            (9, 17, 11),
            (40, 64, 30),
            (80, 32, 32),
            (200, 16, 16),
            (300, 80, 70),
        ] {
            let a = arange(m, l, 1.0);
            let b = arange(n, l, 0.8);
            let reference = Naive.matmul_a_bt(&a, &b);
            for backend in [&Blocked as &dyn Backend, &Parallel::with_threads(2)] {
                let got = backend.matmul_a_bt(&a, &b);
                let what = format!("{} a_bt {m}x{l}x{n}", backend.name());
                if scalar {
                    assert_eq!(got.data(), reference.data(), "{what}");
                } else {
                    assert_close(&got, &reference, 1e-4, &what);
                }
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        // Big enough to clear every parallel threshold.
        let a = arange(300, 80, 1.0);
        let b = arange(80, 70, 0.3);
        let wide = arange(3, 30_000, 0.1);
        let t1 = Parallel::with_threads(1);
        for threads in [2, 4, 7] {
            let tn = Parallel::with_threads(threads);
            assert_eq!(
                t1.matmul(&a, &b).data(),
                tn.matmul(&a, &b).data(),
                "matmul at {threads} threads"
            );
            assert_eq!(
                t1.col_sums(&wide),
                tn.col_sums(&wide),
                "col_sums at {threads} threads"
            );
            assert_eq!(t1.sum(&wide), tn.sum(&wide), "sum at {threads} threads");
            assert_eq!(
                t1.map(&wide, &|x| x * 1.5 + 0.1).data(),
                tn.map(&wide, &|x| x * 1.5 + 0.1).data(),
                "map at {threads} threads"
            );
        }
    }

    #[test]
    fn reductions_match_reference() {
        let a = arange(130, 7, 1.0);
        let reference = Naive.col_sums(&a);
        let par = Parallel::with_threads(4).col_sums(&a);
        for (r, p) in reference.iter().zip(&par) {
            assert!((r - p).abs() < 1e-4, "{r} vs {p}");
        }
        assert!((Naive.sum(&a) - Parallel::with_threads(4).sum(&a)).abs() < 1e-3);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |i, &v| {
            assert_eq!(i, v);
            v * v
        });
        assert_eq!(out, items.iter().map(|&v| v * v).collect::<Vec<_>>());
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, |_, &v| v).is_empty());
    }

    #[test]
    fn empty_shapes_are_handled() {
        let a = Tensor::zeros(0, 5);
        let b = Tensor::zeros(5, 3);
        for backend in [&Naive as &dyn Backend, &Blocked, &Parallel::new()] {
            assert_eq!(backend.matmul(&a, &b).shape(), (0, 3), "{}", backend.name());
            assert_eq!(backend.sum(&a), 0.0);
        }
    }

    #[test]
    fn active_backend_resolves() {
        // Whatever the env says, the process-global must resolve and work.
        let b = active();
        let x = Tensor::eye(3);
        assert_eq!(b.matmul(&x, &x), x);
        assert!(!b.name().is_empty());
    }

    #[test]
    fn for_flops_dispatches_by_size_unless_pinned() {
        if std::env::var("MOSS_BACKEND").is_ok() {
            // A pinned backend must win at every size.
            assert_eq!(for_flops(1).name(), active().name());
            assert_eq!(for_flops(usize::MAX).name(), active().name());
            return;
        }
        assert_eq!(for_flops(10).name(), "blocked");
        assert_eq!(
            for_flops(PAR_MATMUL_MIN_FLOPS).name(),
            default_backend().name()
        );
    }
}
