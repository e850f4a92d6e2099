//! Finite-difference gradient checking for the autograd tape.
//!
//! Used by the tensor crate's own tests and by downstream model tests to
//! verify that every op's backward matches its forward numerically.

use crate::backend::{self, Backend};
use crate::graph::{Gradients, Graph};
use crate::params::{ParamId, ParamStore};

/// Compares analytic gradients against central finite differences on the
/// process-wide active backend.
///
/// `build` must construct the full forward pass and return the scalar loss
/// var; it is invoked many times with perturbed parameter values.
///
/// Returns the maximum relative error across all checked parameters.
///
/// # Panics
///
/// Panics if `build` returns a non-scalar loss.
pub fn max_gradient_error(
    store: &mut ParamStore,
    params: &[ParamId],
    build: impl FnMut(&mut Graph, &ParamStore) -> crate::graph::Var,
) -> f32 {
    max_gradient_error_with_backend(backend::active(), store, params, build)
}

/// [`max_gradient_error`] pinned to a specific compute backend — used by
/// the backend-equivalence tests to verify backward passes kernel by
/// kernel.
///
/// # Panics
///
/// Panics if `build` returns a non-scalar loss.
pub fn max_gradient_error_with_backend(
    be: &'static dyn Backend,
    store: &mut ParamStore,
    params: &[ParamId],
    mut build: impl FnMut(&mut Graph, &ParamStore) -> crate::graph::Var,
) -> f32 {
    let analytic: Gradients = {
        let mut g = Graph::with_backend(be);
        let loss = build(&mut g, store);
        g.backward(loss)
    };
    let eps = 1e-3f32;
    let mut worst = 0.0f32;
    for &p in params {
        let base = store.get(p).clone();
        let ga = analytic
            .get(p)
            .cloned()
            .unwrap_or_else(|| base.map(|_| 0.0));
        for i in 0..base.data().len() {
            let mut plus = base.clone();
            plus.data_mut()[i] += eps;
            store.set(p, plus);
            let lp = {
                let mut g = Graph::with_backend(be);
                let loss = build(&mut g, store);
                g.value(loss).get(0, 0)
            };
            let mut minus = base.clone();
            minus.data_mut()[i] -= eps;
            store.set(p, minus);
            let lm = {
                let mut g = Graph::with_backend(be);
                let loss = build(&mut g, store);
                g.value(loss).get(0, 0)
            };
            store.set(p, base.clone());
            let numeric = (lp - lm) / (2.0 * eps);
            let a = ga.data()[i];
            let denom = a.abs().max(numeric.abs()).max(1e-2);
            worst = worst.max((a - numeric).abs() / denom);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn mlp_with_every_activation_checks_out() {
        let mut store = ParamStore::new();
        let w1 = store.add("w1", Tensor::xavier(3, 4, 1));
        let b1 = store.add("b1", Tensor::xavier(1, 4, 2));
        let w2 = store.add("w2", Tensor::xavier(4, 2, 3));
        let err = max_gradient_error(&mut store, &[w1, b1, w2], |g, s| {
            let x = g.input(Tensor::xavier(5, 3, 9));
            let w1v = g.param(w1, s);
            let b1v = g.param(b1, s);
            let w2v = g.param(w2, s);
            let h = g.matmul(x, w1v);
            let h = g.add_row(h, b1v);
            let h = g.gelu(h);
            let o = g.matmul(h, w2v);
            let o = g.tanh(o);
            g.smooth_l1(o, Tensor::xavier(5, 2, 11))
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn softmax_layernorm_normalize_check_out() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::xavier(4, 4, 5));
        let err = max_gradient_error(&mut store, &[w], |g, s| {
            let x = g.input(Tensor::xavier(3, 4, 6));
            let wv = g.param(w, s);
            let h = g.matmul(x, wv);
            let h = g.layer_norm_rows(h);
            let h = g.softmax_rows(h);
            let h = g.l2_normalize_rows(h);
            let m = g.mean_rows(h);
            g.sum_all(m)
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn cross_entropy_and_attention_style_ops_check_out() {
        let mut store = ParamStore::new();
        let wq = store.add("wq", Tensor::xavier(4, 4, 7));
        let wk = store.add("wk", Tensor::xavier(4, 4, 8));
        let temp = store.add("t", Tensor::from_rows(&[&[0.5]]));
        let err = max_gradient_error(&mut store, &[wq, wk, temp], |g, s| {
            let x = g.input(Tensor::xavier(3, 4, 10));
            let q = {
                let w = g.param(wq, s);
                g.matmul(x, w)
            };
            let k = {
                let w = g.param(wk, s);
                g.matmul(x, w)
            };
            let kt = g.transpose(k);
            let scores = g.matmul(q, kt);
            let tv = g.param(temp, s);
            let scores = g.mul_scalar_var(scores, tv);
            g.cross_entropy_rows(scores, &[0, 1, 2])
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn concat_slice_gather_check_out() {
        let mut store = ParamStore::new();
        let e = store.add("e", Tensor::xavier(5, 3, 13));
        let w = store.add("w", Tensor::xavier(4, 2, 14));
        let err = max_gradient_error(&mut store, &[e, w], |g, s| {
            let ev = g.param(e, s);
            let wv = g.param(w, s);
            let picked = g.gather_rows(ev, &[0, 2, 4]);
            let twice = g.concat_cols(picked, picked);
            let part = g.slice_cols(twice, 1, 4);
            let both = g.concat_rows(&[part, part]);
            let h = g.matmul(both, wv);
            let h = g.sigmoid(h);
            g.mean_all(h)
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn scatter_and_mul_col_check_out() {
        let mut store = ParamStore::new();
        let base = store.add("base", Tensor::xavier(4, 3, 21));
        let rows = store.add("rows", Tensor::xavier(2, 3, 22));
        let col = store.add("col", Tensor::xavier(4, 1, 23));
        let err = max_gradient_error(&mut store, &[base, rows, col], |g, s| {
            let bv = g.param(base, s);
            let rv = g.param(rows, s);
            let cv = g.param(col, s);
            let scattered = g.scatter_rows(bv, rv, &[1, 3]);
            let weighted = g.mul_col(scattered, cv);
            let t = g.tanh(weighted);
            g.mean_all(t)
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn segment_softmax_and_sums_check_out() {
        // Four segments over six key rows: lengths 3, 0, 1 and 2.
        let offsets = [0, 3, 3, 4, 6];
        let bias_index = [0, 1, 2, 3, 4, 5];
        let mut store = ParamStore::new();
        let q = store.add("q", Tensor::xavier(4, 3, 31));
        let k = store.add("k", Tensor::xavier(6, 3, 32));
        let bias = store.add("bias", Tensor::xavier(2, 3, 33));
        let v = store.add("v", Tensor::xavier(6, 2, 34));
        let err = max_gradient_error(&mut store, &[q, k, bias, v], |g, s| {
            let (qv, kv, bv, vv) = (
                g.param(q, s),
                g.param(k, s),
                g.param(bias, s),
                g.param(v, s),
            );
            let alpha = g.segment_softmax(qv, kv, bv, &bias_index, &offsets, 0.7);
            let weighted = g.segment_sum(vv, alpha, &offsets);
            let mean = g.segment_mean(vv, &offsets);
            let both = g.concat_cols(weighted, mean);
            let t = g.tanh(both);
            g.smooth_l1(t, Tensor::xavier(4, 4, 35))
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn gated_update_checks_out() {
        let mut store = ParamStore::new();
        let h = store.add("h", Tensor::xavier(4, 3, 51));
        let pre = store.add("pre", Tensor::xavier(4, 6, 52).map(|x| 2.0 * x));
        let w = store.add("w", Tensor::xavier(6, 6, 53));
        let err = max_gradient_error(&mut store, &[h, pre, w], |g, s| {
            let (hv, pv, wv) = (g.param(h, s), g.param(pre, s), g.param(w, s));
            let first = g.gated_update(hv, pv);
            // A second round whose pre-activation reads both the new and
            // the old state, as consecutive propagation rounds do.
            let both = g.concat_cols(first, hv);
            let pre2 = g.matmul(both, wv);
            let second = g.gated_update(first, pre2);
            g.smooth_l1(second, Tensor::xavier(4, 3, 54))
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }

    #[test]
    fn segment_matmul_and_gather_multi_check_out() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::xavier(5, 3, 41));
        let w1 = store.add("w1", Tensor::xavier(3, 2, 42));
        let w2 = store.add("w2", Tensor::xavier(3, 2, 43));
        let err = max_gradient_error(&mut store, &[a, w1, w2], |g, s| {
            let (av, w1v, w2v) = (g.param(a, s), g.param(w1, s), g.param(w2, s));
            // An empty middle segment and a weight used twice.
            let y = g.segment_matmul(av, &[w1v, w2v, w1v], &[0, 2, 2, 5]);
            let t = g.tanh(y);
            let picked = g.gather_multi(&[(y, 1), (t, 0), (y, 1), (t, 4), (y, 3)]);
            let h = g.sigmoid(picked);
            g.mean_all(h)
        });
        assert!(err < 2e-2, "max relative gradient error {err}");
    }
}
