//! The autograd tape: eager forward evaluation with recorded operations and
//! reverse-mode backpropagation.
//!
//! Each training step builds a fresh [`Graph`], reads parameters from a
//! [`ParamStore`], composes operations (each returning a [`Var`] handle),
//! and calls [`Graph::backward`] on a scalar loss to obtain per-parameter
//! gradients.

use std::collections::HashMap;

use crate::backend::{self, Backend};
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Per-parameter gradients produced by [`Graph::backward`].
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    by_param: HashMap<ParamId, Tensor>,
}

impl Gradients {
    /// Gradient for a parameter, if it participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(&id)
    }

    /// Iterates `(param, gradient)`.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.by_param.iter().map(|(&k, v)| (k, v))
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.by_param.len()
    }

    /// Whether no gradients were produced.
    pub fn is_empty(&self) -> bool {
        self.by_param.is_empty()
    }

    /// Global L2 norm across all gradients.
    ///
    /// The per-tensor partial sums are combined in [`ParamId`] order:
    /// `HashMap` iteration order varies per instance, f32 addition is not
    /// associative, and this norm feeds the gradient-clip scale — an
    /// unordered sum would make training nondeterministic in the last ulp.
    pub fn global_norm(&self) -> f32 {
        let mut partial: Vec<(ParamId, f32)> = self
            .by_param
            .iter()
            .map(|(&id, g)| (id, g.data().iter().map(|&x| x * x).sum::<f32>()))
            .collect();
        partial.sort_unstable_by_key(|&(id, _)| id);
        partial.iter().map(|&(_, s)| s).sum::<f32>().sqrt()
    }

    /// Scales all gradients in place (used for clipping).
    pub fn scale(&mut self, factor: f32) {
        let be = backend::active();
        for g in self.by_param.values_mut() {
            *g = be.map(g, &|x| x * factor);
        }
    }
}

#[derive(Debug)]
enum Op {
    Leaf,
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddRow(Var, Var),
    MulScalarVar(Var, Var),
    Transpose(Var),
    Relu(Var),
    Gelu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    SoftmaxRows(Var),
    MeanRows(Var),
    SumAll(Var),
    MeanAll(Var),
    ConcatCols(Var, Var),
    ConcatRows(Vec<Var>),
    SliceCols(Var, usize, usize),
    GatherRows(Var, Vec<usize>),
    ScatterRows(Var, Var, Vec<usize>),
    MulCol(Var, Var),
    L2NormalizeRows(Var),
    LayerNormRows(Var),
    Dropout(Var, Tensor),
    SmoothL1(Var, Tensor),
    SmoothL1Weighted(Var, Tensor, Tensor),
    CrossEntropyRows(Var, Vec<usize>),
    CrossEntropyCols(Var, Vec<usize>),
    /// Output row `i` is row `rows[i].1` of `rows[i].0`.
    GatherMulti(Vec<(Var, usize)>),
    /// Rows `bounds[s]..bounds[s + 1]` of `a` times `weights[s]`.
    SegmentMatMul {
        a: Var,
        weights: Vec<Var>,
        bounds: Vec<usize>,
    },
    /// Per-segment softmax of `scale·(q_i·k_p) + bias[bias_index[p]]`.
    SegmentSoftmax {
        q: Var,
        k: Var,
        bias: Var,
        bias_index: Vec<usize>,
        offsets: Vec<usize>,
        scale: f32,
    },
    /// Per-segment weighted sum of value rows, or their mean without
    /// weights.
    SegmentSum {
        values: Var,
        weights: Option<Var>,
        offsets: Vec<usize>,
    },
    /// `h + σ(z)∘(tanh(c) − h)` for `pre = [z | c]`; `gates` keeps
    /// `[σ(z) | tanh(c)]` for backward.
    GatedUpdate {
        h: Var,
        pre: Var,
        gates: Tensor,
    },
}

#[derive(Debug)]
struct Node {
    op: Op,
    value: Tensor,
    /// Whether a parameter is upstream of this node, i.e. whether
    /// [`Graph::backward`] needs its gradient. `false` for inputs and for
    /// anything computed from inputs alone.
    requires_grad: bool,
}

/// An autograd tape.
///
/// # Examples
///
/// ```
/// use moss_tensor::{Graph, ParamStore, Tensor};
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::from_rows(&[&[2.0]]));
/// let mut g = Graph::new();
/// let x = g.input(Tensor::from_rows(&[&[3.0]]));
/// let wv = g.param(w, &store);
/// let y = g.matmul(x, wv);
/// let loss = g.sum_all(y);
/// let grads = g.backward(loss);
/// // d(w·x)/dw = x = 3.
/// assert_eq!(grads.get(w).unwrap().get(0, 0), 3.0);
/// ```
#[derive(Debug)]
pub struct Graph {
    nodes: Vec<Node>,
    backend: &'static dyn Backend,
}

impl Default for Graph {
    fn default() -> Graph {
        Graph::new()
    }
}

impl Graph {
    /// An empty tape on the process-wide [`backend::active`] backend.
    pub fn new() -> Graph {
        Graph::with_backend(backend::active())
    }

    /// An empty tape pinned to a specific compute backend (tests and
    /// benchmarks; production code uses [`Graph::new`]).
    pub fn with_backend(backend: &'static dyn Backend) -> Graph {
        Graph {
            nodes: Vec::new(),
            backend,
        }
    }

    /// The backend this tape dispatches its kernels to.
    pub fn backend(&self) -> &'static dyn Backend {
        self.backend
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        let requires_grad = self.op_requires_grad(&op);
        self.nodes.push(Node {
            op,
            value,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Whether [`Graph::backward`] produces a gradient for `v`: true exactly
    /// when a parameter is upstream of it.
    fn requires_grad(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    fn op_requires_grad(&self, op: &Op) -> bool {
        let rg = |v: &Var| self.requires_grad(*v);
        match op {
            Op::Leaf => false,
            Op::Param(_) => true,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRow(a, b)
            | Op::MulScalarVar(a, b)
            | Op::ConcatCols(a, b)
            | Op::ScatterRows(a, b, _)
            | Op::MulCol(a, b) => rg(a) || rg(b),
            Op::Scale(a, _)
            | Op::Transpose(a)
            | Op::Relu(a)
            | Op::Gelu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::SoftmaxRows(a)
            | Op::MeanRows(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SliceCols(a, _, _)
            | Op::GatherRows(a, _)
            | Op::L2NormalizeRows(a)
            | Op::LayerNormRows(a)
            | Op::Dropout(a, _)
            | Op::SmoothL1(a, _)
            | Op::SmoothL1Weighted(a, _, _)
            | Op::CrossEntropyRows(a, _)
            | Op::CrossEntropyCols(a, _) => rg(a),
            Op::ConcatRows(parts) => parts.iter().any(rg),
            Op::GatherMulti(rows) => rows.iter().any(|(v, _)| rg(v)),
            Op::SegmentMatMul { a, weights, .. } => rg(a) || weights.iter().any(rg),
            Op::SegmentSoftmax { q, k, bias, .. } => rg(q) || rg(k) || rg(bias),
            Op::SegmentSum {
                values, weights, ..
            } => rg(values) || weights.as_ref().is_some_and(rg),
            Op::GatedUpdate { h, pre, .. } => rg(h) || rg(pre),
        }
    }

    /// A constant input (no gradient).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf, t)
    }

    /// Reads a parameter's current value onto the tape; gradients will be
    /// accumulated for it during [`Graph::backward`].
    pub fn param(&mut self, id: ParamId, store: &ParamStore) -> Var {
        self.push(Op::Param(id), store.get(id).clone())
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.backend.matmul(self.value(a), self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .backend
            .zip_map(self.value(a), self.value(b), &|x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .backend
            .zip_map(self.value(a), self.value(b), &|x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .backend
            .zip_map(self.value(a), self.value(b), &|x, y| x * y);
        self.push(Op::Mul(a, b), v)
    }

    /// Multiplication by a compile-time constant.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = self.backend.map(self.value(a), &|x| x * c);
        self.push(Op::Scale(a, c), v)
    }

    /// Adds a `1×d` row vector to every row of an `n×d` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1×d`.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (n, d) = self.value(a).shape();
        assert_eq!(
            self.value(row).shape(),
            (1, d),
            "broadcast row must be 1×{d}"
        );
        let mut out = self.value(a).clone();
        let r = self.value(row).data();
        for i in 0..n {
            for (o, &b) in out.row_slice_mut(i).iter_mut().zip(r) {
                *o += b;
            }
        }
        self.push(Op::AddRow(a, row), out)
    }

    /// Multiplies a tensor by a learned `1×1` scalar variable.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not `1×1`.
    pub fn mul_scalar_var(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(self.value(s).shape(), (1, 1), "scalar must be 1×1");
        let c = self.value(s).get(0, 0);
        let v = self.backend.map(self.value(a), &|x| x * c);
        self.push(Op::MulScalarVar(a, s), v)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(Op::Transpose(a), v)
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.backend.map(self.value(a), &|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: Var) -> Var {
        let v = self.backend.map(self.value(a), &gelu);
        self.push(Op::Gelu(a), v)
    }

    /// Tanh activation.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.backend.map(self.value(a), &f32::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.backend.map(self.value(a), &sigmoid);
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.backend.map(self.value(a), &f32::exp);
        self.push(Op::Exp(a), v)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let v = softmax_rows(self.value(a));
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Mean over rows: `n×d → 1×d`.
    pub fn mean_rows(&mut self, a: Var) -> Var {
        let (n, d) = self.value(a).shape();
        let inv = 1.0 / n.max(1) as f32;
        let sums = self.backend.col_sums(self.value(a));
        let out = Tensor::from_vec(sums.into_iter().map(|s| s * inv).collect(), 1, d);
        self.push(Op::MeanRows(a), out)
    }

    /// Sum of all elements → `1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::from_rows(&[&[self.backend.sum(self.value(a))]]);
        self.push(Op::SumAll(a), v)
    }

    /// Mean of all elements → `1×1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let len = self.value(a).data().len();
        let mean = if len == 0 {
            0.0
        } else {
            self.backend.sum(self.value(a)) / len as f32
        };
        self.push(Op::MeanAll(a), Tensor::from_rows(&[&[mean]]))
    }

    /// Horizontal concatenation `n×a ++ n×b → n×(a+b)`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (na, ca) = self.value(a).shape();
        let (nb, cb) = self.value(b).shape();
        assert_eq!(na, nb, "concat_cols row mismatch");
        let mut data = Vec::with_capacity(na * (ca + cb));
        for i in 0..na {
            data.extend_from_slice(self.value(a).row_slice(i));
            data.extend_from_slice(self.value(b).row_slice(i));
        }
        self.push(Op::ConcatCols(a, b), Tensor::from_vec(data, na, ca + cb))
    }

    /// Vertical concatenation of several tensors sharing a column count.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or column counts differ.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let out = Tensor::vstack(&tensors);
        self.push(Op::ConcatRows(parts.to_vec()), out)
    }

    /// Column slice `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        let (n, c) = self.value(a).shape();
        assert!(start + len <= c, "slice_cols out of range");
        let mut data = Vec::with_capacity(n * len);
        for i in 0..n {
            data.extend_from_slice(&self.value(a).row_slice(i)[start..start + len]);
        }
        self.push(Op::SliceCols(a, start, len), Tensor::from_vec(data, n, len))
    }

    /// Gathers rows by index (embedding lookup); backward scatter-adds.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let (n, d) = self.value(a).shape();
        let mut data = Vec::with_capacity(indices.len() * d);
        for &idx in indices {
            assert!(idx < n, "gather index {idx} out of range");
            data.extend_from_slice(self.value(a).row_slice(idx));
        }
        let out = Tensor::from_vec(data, indices.len(), d);
        self.push(Op::GatherRows(a, indices.to_vec()), out)
    }

    /// Functional row update: copies `base` and overwrites row `indices[i]`
    /// with row `i` of `rows`. Gradients flow to `rows` at the written
    /// positions and to `base` everywhere else.
    ///
    /// This is how the asynchronous (level-by-level) GNN propagation updates
    /// node states without mutating tape history.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ, `rows` has fewer rows than `indices`,
    /// an index is out of range, or `indices` contains duplicates.
    pub fn scatter_rows(&mut self, base: Var, rows: Var, indices: &[usize]) -> Var {
        let (n, d) = self.value(base).shape();
        let (k, dr) = self.value(rows).shape();
        assert_eq!(d, dr, "scatter_rows column mismatch");
        assert_eq!(k, indices.len(), "one row per index");
        let mut seen = vec![false; n];
        let mut out = self.value(base).clone();
        for (i, &idx) in indices.iter().enumerate() {
            assert!(idx < n, "scatter index {idx} out of range");
            assert!(!seen[idx], "duplicate scatter index {idx}");
            seen[idx] = true;
            for j in 0..d {
                out.set(idx, j, self.value(rows).get(i, j));
            }
        }
        self.push(Op::ScatterRows(base, rows, indices.to_vec()), out)
    }

    /// Broadcast multiply of an `n×d` tensor by an `n×1` column vector.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `n×1`.
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let n = self.value(a).rows();
        assert_eq!(
            self.value(col).shape(),
            (n, 1),
            "broadcast column must be {n}×1"
        );
        let mut out = self.value(a).clone();
        for (i, &c) in self.value(col).data().iter().enumerate() {
            for o in out.row_slice_mut(i) {
                *o *= c;
            }
        }
        self.push(Op::MulCol(a, col), out)
    }

    /// Multi-source gather: output row `i` is row `rows[i].1` of
    /// `rows[i].0`. One op however many tensors the rows come from; backward
    /// scatter-adds into each source.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, a row index is out of range, or the
    /// sources' column counts differ.
    pub fn gather_multi(&mut self, rows: &[(Var, usize)]) -> Var {
        assert!(!rows.is_empty(), "gather_multi of nothing");
        let d = self.value(rows[0].0).cols();
        let mut data = Vec::with_capacity(rows.len() * d);
        for &(src, r) in rows {
            let t = self.value(src);
            assert_eq!(t.cols(), d, "gather_multi column mismatch");
            assert!(r < t.rows(), "gather index {r} out of range");
            data.extend_from_slice(t.row_slice(r));
        }
        let out = Tensor::from_vec(data, rows.len(), d);
        self.push(Op::GatherMulti(rows.to_vec()), out)
    }

    /// Row-segmented matrix product: rows `bounds[s]..bounds[s + 1]` of `a`
    /// are multiplied by `weights[s]`. Each block is an ordinary
    /// [`Graph::matmul`] (matmul rows are independent), so a single segment
    /// is bit-identical to `matmul(a, weights[0])`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not `weights.len() + 1` non-decreasing offsets
    /// from 0 to `a.rows()`, or the weights' shapes differ.
    pub fn segment_matmul(&mut self, a: Var, weights: &[Var], bounds: &[usize]) -> Var {
        let (m, k) = self.value(a).shape();
        assert!(!weights.is_empty(), "segment_matmul without weights");
        assert_eq!(bounds.len(), weights.len() + 1, "one bound per segment + 1");
        assert_eq!((bounds[0], bounds[weights.len()]), (0, m), "bounds span a");
        let n = self.value(weights[0]).cols();
        let mut data = Vec::with_capacity(m * n);
        for (s, &w) in weights.iter().enumerate() {
            let (r0, r1) = (bounds[s], bounds[s + 1]);
            assert!(r0 <= r1, "segment bounds must be non-decreasing");
            assert_eq!(self.value(w).shape(), (k, n), "segment weight shape");
            let block = row_block(self.value(a), r0, r1);
            data.extend_from_slice(self.backend.matmul(&block, self.value(w)).data());
        }
        let op = Op::SegmentMatMul {
            a,
            weights: weights.to_vec(),
            bounds: bounds.to_vec(),
        };
        self.push(op, Tensor::from_vec(data, m, n))
    }

    /// Fused attention weights over CSR segments: segment `i` is rows
    /// `offsets[i]..offsets[i + 1]` of `k`, and row `p` of the `P×1` output
    /// is the softmax within its segment of
    /// `scale·(q_i·k_p) + bias.data()[bias_index[p]]`.
    ///
    /// A one-row segment gets weight exactly 1; an empty one contributes no
    /// rows.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `k` widths differ, `offsets` is not `q.rows() + 1`
    /// non-decreasing offsets ending at `k.rows()`, `bias_index` is not one
    /// entry per key row, or a bias index is out of range.
    pub fn segment_softmax(
        &mut self,
        q: Var,
        k: Var,
        bias: Var,
        bias_index: &[usize],
        offsets: &[usize],
        scale: f32,
    ) -> Var {
        let (qt, kt, bt) = (self.value(q), self.value(k), self.value(bias));
        assert_eq!(qt.cols(), kt.cols(), "segment_softmax width mismatch");
        check_offsets(offsets, qt.rows(), kt.rows());
        assert_eq!(bias_index.len(), kt.rows(), "one bias index per key row");
        let mut out = vec![0.0f32; kt.rows()];
        for i in 0..qt.rows() {
            let (p0, p1) = (offsets[i], offsets[i + 1]);
            if p0 == p1 {
                continue;
            }
            let qi = qt.row_slice(i);
            for p in p0..p1 {
                let dot: f32 = qi.iter().zip(kt.row_slice(p)).map(|(&x, &y)| x * y).sum();
                out[p] = dot * scale + bt.data()[bias_index[p]];
            }
            softmax_in_place(&mut out[p0..p1]);
        }
        let op = Op::SegmentSoftmax {
            q,
            k,
            bias,
            bias_index: bias_index.to_vec(),
            offsets: offsets.to_vec(),
            scale,
        };
        let rows = out.len();
        self.push(op, Tensor::from_vec(out, rows, 1))
    }

    /// Per-segment weighted sum of value rows: output row `i` is
    /// `Σ_p weights[p]·values[p]` over `p ∈ offsets[i]..offsets[i + 1]`,
    /// accumulated in row order. An empty segment yields a zero row.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not end at `values.rows()` or `weights` is
    /// not `values.rows() × 1`.
    pub fn segment_sum(&mut self, values: Var, weights: Var, offsets: &[usize]) -> Var {
        self.segment_reduce(values, Some(weights), offsets)
    }

    /// Per-segment mean of value rows (the sum times `1/len`); an empty
    /// segment yields a zero row.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` does not end at `values.rows()`.
    pub fn segment_mean(&mut self, values: Var, offsets: &[usize]) -> Var {
        self.segment_reduce(values, None, offsets)
    }

    /// [`Graph::segment_sum`] with `weights`, [`Graph::segment_mean`]
    /// without.
    fn segment_reduce(&mut self, values: Var, weights: Option<Var>, offsets: &[usize]) -> Var {
        let vt = self.value(values);
        let (p_rows, d) = vt.shape();
        assert!(!offsets.is_empty(), "segment offsets need a leading 0");
        let n = offsets.len() - 1;
        check_offsets(offsets, n, p_rows);
        let w = weights.map(|w| {
            assert_eq!(
                self.value(w).shape(),
                (p_rows, 1),
                "one weight per value row"
            );
            self.value(w).data()
        });
        let mut out = Tensor::zeros(n, d);
        for i in 0..n {
            let (p0, p1) = (offsets[i], offsets[i + 1]);
            let acc = out.row_slice_mut(i);
            for p in p0..p1 {
                let v = vt.row_slice(p);
                match (w, p == p0) {
                    (Some(w), true) => acc.iter_mut().zip(v).for_each(|(a, &x)| *a = x * w[p]),
                    (Some(w), false) => acc.iter_mut().zip(v).for_each(|(a, &x)| *a += x * w[p]),
                    (None, true) => acc.copy_from_slice(v),
                    (None, false) => acc.iter_mut().zip(v).for_each(|(a, &x)| *a += x),
                }
            }
            if w.is_none() && p1 > p0 {
                let inv = 1.0 / (p1 - p0) as f32;
                acc.iter_mut().for_each(|a| *a *= inv);
            }
        }
        let op = Op::SegmentSum {
            values,
            weights,
            offsets: offsets.to_vec(),
        };
        self.push(op, out)
    }

    /// GRU-style gated state update in one op: with `pre = [z | c]`
    /// (`n × 2d`) and states `h` (`n × d`), returns
    /// `h + σ(z)∘(tanh(c) − h)`, i.e. `(1 − σ(z))∘h + σ(z)∘tanh(c)`.
    ///
    /// Each element takes the same arithmetic as the chain `slice_cols`,
    /// `sigmoid`, `slice_cols`, `tanh`, `sub`, `mul`, `add`, so the value
    /// is bit-identical to it; backward is one pass over the rows with the
    /// chain's per-element products.
    ///
    /// # Panics
    ///
    /// Panics if `pre` is not `h.rows() × 2·h.cols()`.
    pub fn gated_update(&mut self, h: Var, pre: Var) -> Var {
        let (ht, pt) = (self.value(h), self.value(pre));
        let (n, d) = ht.shape();
        assert_eq!(pt.shape(), (n, 2 * d), "gated_update needs pre = [z | c]");
        let mut gates = Vec::with_capacity(n * 2 * d);
        let mut out = Vec::with_capacity(n * d);
        for r in 0..n {
            let (z, c) = pt.row_slice(r).split_at(d);
            let start = gates.len();
            gates.extend(z.iter().map(|&x| sigmoid(x)));
            gates.extend(c.iter().map(|&x| x.tanh()));
            let (s, t) = gates[start..].split_at(d);
            let hr = ht.row_slice(r);
            out.extend((0..d).map(|j| hr[j] + s[j] * (t[j] - hr[j])));
        }
        let gates = Tensor::from_vec(gates, n, 2 * d);
        self.push(
            Op::GatedUpdate { h, pre, gates },
            Tensor::from_vec(out, n, d),
        )
    }

    /// Row-wise L2 normalization (as in the paper's Fig. 6 pseudocode).
    pub fn l2_normalize_rows(&mut self, a: Var) -> Var {
        let v = l2_normalize_rows(self.value(a));
        self.push(Op::L2NormalizeRows(a), v)
    }

    /// Row-wise layer normalization (no affine; compose with
    /// [`Graph::mul`]/[`Graph::add_row`] for scale and shift).
    pub fn layer_norm_rows(&mut self, a: Var) -> Var {
        let v = layer_norm_rows(self.value(a));
        self.push(Op::LayerNormRows(a), v)
    }

    /// Dropout with the given keep mask (values 0 or `1/keep_prob`);
    /// generate the mask externally for determinism.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs.
    pub fn dropout(&mut self, a: Var, mask: Tensor) -> Var {
        let v = self.backend.zip_map(self.value(a), &mask, &|x, m| x * m);
        self.push(Op::Dropout(a, mask), v)
    }

    /// Smooth-L1 (Huber, β = 1) loss against a constant target, averaged
    /// over all elements → `1×1`. This is the paper's choice for the
    /// Etoggle, EAT, RrNdM and RNM losses.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn smooth_l1(&mut self, pred: Var, target: Tensor) -> Var {
        let diff = self.value(pred).zip_map(&target, |p, t| p - t);
        let loss = diff
            .data()
            .iter()
            .map(|&d| {
                if d.abs() < 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            })
            .sum::<f32>()
            / diff.data().len().max(1) as f32;
        self.push(Op::SmoothL1(pred, target), Tensor::from_rows(&[&[loss]]))
    }

    /// Per-element weighted smooth-L1 against a constant target → `1×1`.
    /// Weights let tasks emphasize e.g. critical-path DFFs.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn smooth_l1_weighted(&mut self, pred: Var, target: Tensor, weights: Tensor) -> Var {
        assert_eq!(target.shape(), weights.shape(), "weights shape mismatch");
        let diff = self.value(pred).zip_map(&target, |p, t| p - t);
        let wsum: f32 = weights.data().iter().sum::<f32>().max(1e-12);
        let loss = diff
            .data()
            .iter()
            .zip(weights.data())
            .map(|(&d, &w)| {
                w * if d.abs() < 1.0 {
                    0.5 * d * d
                } else {
                    d.abs() - 0.5
                }
            })
            .sum::<f32>()
            / wsum;
        self.push(
            Op::SmoothL1Weighted(pred, target, weights),
            Tensor::from_rows(&[&[loss]]),
        )
    }

    /// Cross-entropy of row-softmax against integer labels, averaged → `1×1`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the row count.
    pub fn cross_entropy_rows(&mut self, logits: Var, labels: &[usize]) -> Var {
        let (n, _) = self.value(logits).shape();
        assert_eq!(labels.len(), n, "one label per row");
        let sm = softmax_rows(self.value(logits));
        let loss = (0..n)
            .map(|i| -(sm.get(i, labels[i]).max(1e-12)).ln())
            .sum::<f32>()
            / n.max(1) as f32;
        self.push(
            Op::CrossEntropyRows(logits, labels.to_vec()),
            Tensor::from_rows(&[&[loss]]),
        )
    }

    /// Cross-entropy along *columns* (softmax down each column), as used by
    /// the symmetric CLIP-style RNC loss (paper Fig. 6, `axis=0`).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the column count.
    pub fn cross_entropy_cols(&mut self, logits: Var, labels: &[usize]) -> Var {
        let (_, c) = self.value(logits).shape();
        assert_eq!(labels.len(), c, "one label per column");
        let smt = softmax_rows(&self.value(logits).transpose());
        let loss = (0..c)
            .map(|j| -(smt.get(j, labels[j]).max(1e-12)).ln())
            .sum::<f32>()
            / c.max(1) as f32;
        self.push(
            Op::CrossEntropyCols(logits, labels.to_vec()),
            Tensor::from_rows(&[&[loss]]),
        )
    }

    /// Reverse-mode backpropagation from a scalar loss.
    ///
    /// Only nodes with a parameter upstream get gradients: operand
    /// gradients toward inputs and input-only subexpressions are never
    /// computed.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "loss must be scalar");
        let nodes = &self.nodes;
        let be = self.backend;
        let mut grads = Slots {
            grads: vec![None; nodes.len()],
            nodes,
        };
        if nodes[loss.0].requires_grad {
            grads.grads[loss.0] = Some(Tensor::from_rows(&[&[1.0]]));
        }
        let mut out = Gradients::default();
        let value = |v: &Var| &nodes[v.0].value;

        for i in (0..nodes.len()).rev() {
            let Some(grad) = grads.grads[i].take() else {
                continue;
            };
            let y = &nodes[i].value;
            match &nodes[i].op {
                Op::Leaf => {}
                Op::Param(id) => match out.by_param.entry(*id) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        add_into(e.get_mut(), &grad)
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let mut acc = Tensor::zeros(grad.rows(), grad.cols());
                        add_into(&mut acc, &grad);
                        e.insert(acc);
                    }
                },
                Op::MatMul(a, b) => {
                    if grads.needs(a) {
                        grads.add(a, be.matmul_a_bt(&grad, value(b)));
                    }
                    if grads.needs(b) {
                        grads.add(b, be.matmul_at_b(value(a), &grad));
                    }
                }
                Op::Add(a, b) => {
                    if grads.needs(a) {
                        grads.add(a, grad.clone());
                    }
                    grads.add_if_needed(b, grad);
                }
                Op::Sub(a, b) => {
                    if grads.needs(a) {
                        grads.add(a, grad.clone());
                    }
                    if grads.needs(b) {
                        grads.add(b, be.map(&grad, &|x| -x));
                    }
                }
                Op::Mul(a, b) => {
                    if grads.needs(a) {
                        grads.add(a, be.zip_map(&grad, value(b), &|g, y| g * y));
                    }
                    if grads.needs(b) {
                        grads.add(b, be.zip_map(&grad, value(a), &|g, x| g * x));
                    }
                }
                Op::Scale(a, c) => grads.add(a, be.map(&grad, &|x| x * c)),
                Op::AddRow(a, r) => {
                    if grads.needs(r) {
                        let mut dr = vec![0.0f32; grad.cols()];
                        for ii in 0..grad.rows() {
                            for (acc, &g) in dr.iter_mut().zip(grad.row_slice(ii)) {
                                *acc += g;
                            }
                        }
                        grads.add(r, Tensor::from_vec(dr, 1, grad.cols()));
                    }
                    grads.add_if_needed(a, grad);
                }
                Op::MulScalarVar(a, s) => {
                    if grads.needs(a) {
                        let c = value(s).get(0, 0);
                        grads.add(a, be.map(&grad, &|x| x * c));
                    }
                    if grads.needs(s) {
                        let prod = be.zip_map(&grad, value(a), &|g, x| g * x);
                        grads.add(s, Tensor::from_rows(&[&[be.sum(&prod)]]));
                    }
                }
                Op::Transpose(a) => grads.add(a, grad.transpose()),
                Op::Relu(a) => {
                    let dx = be.zip_map(&grad, value(a), &|g, x| if x > 0.0 { g } else { 0.0 });
                    grads.add(a, dx);
                }
                Op::Gelu(a) => {
                    grads.add(a, be.zip_map(&grad, value(a), &|g, x| g * gelu_grad(x)));
                }
                Op::Tanh(a) => grads.add(a, be.zip_map(&grad, y, &|g, y| g * (1.0 - y * y))),
                Op::Sigmoid(a) => grads.add(a, be.zip_map(&grad, y, &|g, y| g * y * (1.0 - y))),
                Op::Exp(a) => grads.add(a, be.zip_map(&grad, y, &|g, y| g * y)),
                Op::SoftmaxRows(a) => {
                    let (rn, rc) = y.shape();
                    let mut dx = Tensor::zeros(rn, rc);
                    for r in 0..rn {
                        let (gr, yr) = (grad.row_slice(r), y.row_slice(r));
                        let dot: f32 = gr.iter().zip(yr).map(|(&g, &y)| g * y).sum();
                        for ((d, &g), &y) in dx.row_slice_mut(r).iter_mut().zip(gr).zip(yr) {
                            *d = y * (g - dot);
                        }
                    }
                    grads.add(a, dx);
                }
                Op::MeanRows(a) => {
                    let (an, ad) = value(a).shape();
                    let row: Vec<f32> = grad.data().iter().map(|&g| g / an.max(1) as f32).collect();
                    let mut data = Vec::with_capacity(an * ad);
                    for _ in 0..an {
                        data.extend_from_slice(&row);
                    }
                    grads.add(a, Tensor::from_vec(data, an, ad));
                }
                Op::SumAll(a) => {
                    let (an, ad) = value(a).shape();
                    grads.add(a, Tensor::full(an, ad, grad.get(0, 0)));
                }
                Op::MeanAll(a) => {
                    let (an, ad) = value(a).shape();
                    let g = grad.get(0, 0) / (an * ad).max(1) as f32;
                    grads.add(a, Tensor::full(an, ad, g));
                }
                Op::ConcatCols(a, b) => {
                    let ca = value(a).cols();
                    if grads.needs(a) {
                        grads.add(a, col_block(&grad, 0, ca));
                    }
                    if grads.needs(b) {
                        grads.add(b, col_block(&grad, ca, grad.cols() - ca));
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let pn = value(p).rows();
                        if grads.needs(p) {
                            grads.add(p, row_block(&grad, offset, offset + pn));
                        }
                        offset += pn;
                    }
                }
                Op::SliceCols(a, start, len) => {
                    let (an, ac) = value(a).shape();
                    let mut da = Tensor::zeros(an, ac);
                    for r in 0..an {
                        da.row_slice_mut(r)[*start..start + len].copy_from_slice(grad.row_slice(r));
                    }
                    grads.add(a, da);
                }
                Op::GatherRows(a, indices) => {
                    let shape = value(a).shape();
                    let dst = grads.slot(a, shape);
                    for (r, &target) in indices.iter().enumerate() {
                        add_slice(dst.row_slice_mut(target), grad.row_slice(r));
                    }
                }
                Op::GatherMulti(rows) => {
                    for (r, (src, target)) in rows.iter().enumerate() {
                        if grads.needs(src) {
                            let dst = grads.slot(src, value(src).shape());
                            add_slice(dst.row_slice_mut(*target), grad.row_slice(r));
                        }
                    }
                }
                Op::ScatterRows(base, rows, indices) => {
                    let d = grad.cols();
                    let mut drows = Tensor::zeros(indices.len(), d);
                    // Take ownership of `grad` as dbase, zeroing the
                    // overwritten rows in place (no full-size temporary).
                    let mut dbase = grad;
                    for (i, &idx) in indices.iter().enumerate() {
                        drows.row_slice_mut(i).copy_from_slice(dbase.row_slice(idx));
                        dbase.row_slice_mut(idx).fill(0.0);
                    }
                    grads.add_if_needed(base, dbase);
                    grads.add_if_needed(rows, drows);
                }
                Op::MulCol(a, col) => {
                    let (colv, av) = (value(col), value(a));
                    if grads.needs(a) {
                        let mut da = grad.clone();
                        for (r, &c) in colv.data().iter().enumerate() {
                            da.row_slice_mut(r).iter_mut().for_each(|g| *g *= c);
                        }
                        grads.add(a, da);
                    }
                    if grads.needs(col) {
                        let dcol = (0..grad.rows())
                            .map(|r| {
                                let mut acc = 0.0;
                                for (&g, &x) in grad.row_slice(r).iter().zip(av.row_slice(r)) {
                                    acc += g * x;
                                }
                                acc
                            })
                            .collect();
                        grads.add(col, Tensor::from_vec(dcol, grad.rows(), 1));
                    }
                }
                Op::SegmentMatMul { a, weights, bounds } => {
                    let at = value(a);
                    let mut da = grads.needs(a).then(|| Vec::with_capacity(at.data().len()));
                    for (s, w) in weights.iter().enumerate() {
                        let g_s = row_block(&grad, bounds[s], bounds[s + 1]);
                        if let Some(da) = da.as_mut() {
                            da.extend_from_slice(be.matmul_a_bt(&g_s, value(w)).data());
                        }
                        if grads.needs(w) {
                            let a_s = row_block(at, bounds[s], bounds[s + 1]);
                            grads.add(w, be.matmul_at_b(&a_s, &g_s));
                        }
                    }
                    if let Some(da) = da {
                        grads.add(a, Tensor::from_vec(da, at.rows(), at.cols()));
                    }
                }
                Op::SegmentSoftmax {
                    q,
                    k,
                    bias,
                    bias_index,
                    offsets,
                    scale,
                } => {
                    let (qt, kt) = (value(q), value(k));
                    let mut dq = grads.needs(q).then(|| Tensor::zeros(qt.rows(), qt.cols()));
                    let mut dk = grads.needs(k).then(|| Tensor::zeros(kt.rows(), kt.cols()));
                    let mut db = grads
                        .needs(bias)
                        .then(|| vec![0.0f32; value(bias).data().len()]);
                    let (alpha, dalpha) = (y.data(), grad.data());
                    for i in 0..qt.rows() {
                        let (p0, p1) = (offsets[i], offsets[i + 1]);
                        let dot: f32 = (p0..p1).map(|p| dalpha[p] * alpha[p]).sum();
                        for p in p0..p1 {
                            let ds = alpha[p] * (dalpha[p] - dot);
                            if let Some(db) = db.as_mut() {
                                db[bias_index[p]] += ds;
                            }
                            let c = ds * scale;
                            if let Some(dq) = dq.as_mut() {
                                for (d, &kv) in dq.row_slice_mut(i).iter_mut().zip(kt.row_slice(p))
                                {
                                    *d += c * kv;
                                }
                            }
                            if let Some(dk) = dk.as_mut() {
                                for (d, &qv) in dk.row_slice_mut(p).iter_mut().zip(qt.row_slice(i))
                                {
                                    *d = c * qv;
                                }
                            }
                        }
                    }
                    if let Some(dq) = dq {
                        grads.add(q, dq);
                    }
                    if let Some(dk) = dk {
                        grads.add(k, dk);
                    }
                    if let Some(db) = db {
                        let (br, bc) = value(bias).shape();
                        grads.add(bias, Tensor::from_vec(db, br, bc));
                    }
                }
                Op::SegmentSum {
                    values,
                    weights,
                    offsets,
                } => {
                    let vt = value(values);
                    if grads.needs(values) {
                        let w = weights.as_ref().map(|w| value(w).data());
                        let mut dv = Tensor::zeros(vt.rows(), vt.cols());
                        for i in 0..grad.rows() {
                            let (p0, p1) = (offsets[i], offsets[i + 1]);
                            let inv = 1.0 / (p1 - p0) as f32;
                            for p in p0..p1 {
                                // The row's factor in the forward: its
                                // weight, or 1/len for the mean.
                                let c = w.map_or(inv, |w| w[p]);
                                for (d, &g) in dv.row_slice_mut(p).iter_mut().zip(grad.row_slice(i))
                                {
                                    *d = g * c;
                                }
                            }
                        }
                        grads.add(values, dv);
                    }
                    if let Some(wv) = weights.filter(|wv| grads.needs(wv)) {
                        let dw = (0..grad.rows())
                            .flat_map(|i| (offsets[i]..offsets[i + 1]).map(move |p| (i, p)))
                            .map(|(i, p)| {
                                let mut acc = 0.0;
                                for (&g, &x) in grad.row_slice(i).iter().zip(vt.row_slice(p)) {
                                    acc += g * x;
                                }
                                acc
                            })
                            .collect();
                        grads.add(&wv, Tensor::from_vec(dw, vt.rows(), 1));
                    }
                }
                Op::GatedUpdate { h, pre, gates } => {
                    let ht = value(h);
                    let (n, d) = ht.shape();
                    let mut dpre = grads.needs(pre).then(|| Vec::with_capacity(n * 2 * d));
                    let mut dh = grads.needs(h).then(|| Vec::with_capacity(n * d));
                    for r in 0..n {
                        let (s, t) = gates.row_slice(r).split_at(d);
                        let (go, hr) = (grad.row_slice(r), ht.row_slice(r));
                        if let Some(dpre) = dpre.as_mut() {
                            // Through the sigmoid: go·(tanh(c) − h)·σ(1 − σ).
                            dpre.extend(
                                (0..d).map(|j| go[j] * (t[j] - hr[j]) * s[j] * (1.0 - s[j])),
                            );
                            // Through the tanh: go·σ·(1 − tanh²).
                            dpre.extend((0..d).map(|j| go[j] * s[j] * (1.0 - t[j] * t[j])));
                        }
                        if let Some(dh) = dh.as_mut() {
                            dh.extend((0..d).map(|j| go[j] - go[j] * s[j]));
                        }
                    }
                    if let Some(dpre) = dpre {
                        grads.add(pre, Tensor::from_vec(dpre, n, 2 * d));
                    }
                    if let Some(dh) = dh {
                        grads.add(h, Tensor::from_vec(dh, n, d));
                    }
                }
                Op::L2NormalizeRows(a) => {
                    let x = value(a);
                    let (rn, rc) = x.shape();
                    let mut dx = Tensor::zeros(rn, rc);
                    for r in 0..rn {
                        let norm: f32 = x
                            .row_slice(r)
                            .iter()
                            .map(|&v| v * v)
                            .sum::<f32>()
                            .sqrt()
                            .max(1e-12);
                        let dot: f32 = (0..rc).map(|c| grad.get(r, c) * y.get(r, c)).sum();
                        for c in 0..rc {
                            dx.set(r, c, (grad.get(r, c) - y.get(r, c) * dot) / norm);
                        }
                    }
                    grads.add(a, dx);
                }
                Op::LayerNormRows(a) => {
                    let x = value(a);
                    let (rn, rc) = x.shape();
                    let d = rc as f32;
                    let mut dx = Tensor::zeros(rn, rc);
                    for r in 0..rn {
                        let mean: f32 = x.row_slice(r).iter().sum::<f32>() / d;
                        let var: f32 = x
                            .row_slice(r)
                            .iter()
                            .map(|&v| (v - mean) * (v - mean))
                            .sum::<f32>()
                            / d;
                        let std = (var + 1e-5).sqrt();
                        let gmean: f32 = grad.row_slice(r).iter().sum::<f32>() / d;
                        let gydot: f32 =
                            (0..rc).map(|c| grad.get(r, c) * y.get(r, c)).sum::<f32>() / d;
                        for c in 0..rc {
                            let v = (grad.get(r, c) - gmean - y.get(r, c) * gydot) / std;
                            dx.set(r, c, v);
                        }
                    }
                    grads.add(a, dx);
                }
                Op::Dropout(a, mask) => grads.add(a, be.zip_map(&grad, mask, &|g, m| g * m)),
                Op::SmoothL1(pred, target) => {
                    let g = grad.get(0, 0);
                    let diff = be.zip_map(value(pred), target, &|p, t| p - t);
                    let len = diff.data().len().max(1) as f32;
                    grads.add(pred, be.map(&diff, &|d| g * d.clamp(-1.0, 1.0) / len));
                }
                Op::SmoothL1Weighted(pred, target, weights) => {
                    let g = grad.get(0, 0);
                    let diff = be.zip_map(value(pred), target, &|p, t| p - t);
                    let wsum: f32 = weights.data().iter().sum::<f32>().max(1e-12);
                    let dx = be.zip_map(&diff, weights, &|d, w| g * w * d.clamp(-1.0, 1.0) / wsum);
                    grads.add(pred, dx);
                }
                Op::CrossEntropyRows(logits, labels) => {
                    let g = grad.get(0, 0);
                    let sm = softmax_rows(value(logits));
                    let (rn, rc) = sm.shape();
                    let mut dx = Tensor::zeros(rn, rc);
                    for (r, &label) in labels.iter().enumerate().take(rn) {
                        for c in 0..rc {
                            let one = if label == c { 1.0 } else { 0.0 };
                            dx.set(r, c, g * (sm.get(r, c) - one) / rn.max(1) as f32);
                        }
                    }
                    grads.add(logits, dx);
                }
                Op::CrossEntropyCols(logits, labels) => {
                    let g = grad.get(0, 0);
                    let smt = softmax_rows(&value(logits).transpose());
                    let (cn, cr) = smt.shape(); // cn = cols of logits
                    let mut dx = Tensor::zeros(cr, cn);
                    for (j, &label) in labels.iter().enumerate().take(cn) {
                        for r in 0..cr {
                            let one = if label == r { 1.0 } else { 0.0 };
                            dx.set(r, j, g * (smt.get(j, r) - one) / cn.max(1) as f32);
                        }
                    }
                    grads.add(logits, dx);
                }
            }
        }
        out
    }
}

/// Per-node gradient slots for one backward pass. Only nodes that require
/// a gradient ever receive a slot.
struct Slots<'a> {
    grads: Vec<Option<Tensor>>,
    nodes: &'a [Node],
}

impl Slots<'_> {
    fn needs(&self, v: &Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Accumulates `delta` into `v`'s gradient.
    fn add(&mut self, v: &Var, delta: Tensor) {
        debug_assert!(self.needs(v), "gradient toward a node that needs none");
        match &mut self.grads[v.0] {
            Some(g) => {
                debug_assert_eq!(g.shape(), delta.shape(), "gradient shape mismatch");
                add_into(g, &delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// [`Slots::add`] when `v` needs a gradient; otherwise drops `delta`.
    fn add_if_needed(&mut self, v: &Var, delta: Tensor) {
        if self.needs(v) {
            self.add(v, delta);
        }
    }

    /// `v`'s gradient, zero-initialized to `shape` on first touch (for ops
    /// that scatter rows into it without a full-size temporary).
    fn slot(&mut self, v: &Var, shape: (usize, usize)) -> &mut Tensor {
        debug_assert!(self.needs(v), "gradient toward a node that needs none");
        self.grads[v.0].get_or_insert_with(|| Tensor::zeros(shape.0, shape.1))
    }
}

fn add_into(acc: &mut Tensor, delta: &Tensor) {
    add_slice(acc.data_mut(), delta.data());
}

fn add_slice(acc: &mut [f32], delta: &[f32]) {
    for (a, &b) in acc.iter_mut().zip(delta) {
        *a += b;
    }
}

/// Rows `r0..r1` of `t` as a new tensor.
fn row_block(t: &Tensor, r0: usize, r1: usize) -> Tensor {
    let d = t.cols();
    Tensor::from_vec(t.data()[r0 * d..r1 * d].to_vec(), r1 - r0, d)
}

/// Columns `start..start + len` of `t` as a new tensor.
fn col_block(t: &Tensor, start: usize, len: usize) -> Tensor {
    let mut data = Vec::with_capacity(t.rows() * len);
    for r in 0..t.rows() {
        data.extend_from_slice(&t.row_slice(r)[start..start + len]);
    }
    Tensor::from_vec(data, t.rows(), len)
}

/// Checks CSR segment offsets: `n + 1` non-decreasing entries from 0 to
/// `total`.
fn check_offsets(offsets: &[usize], n: usize, total: usize) {
    assert_eq!(offsets.len(), n + 1, "one offset per segment + 1");
    assert_eq!(
        (offsets[0], offsets[n]),
        (0, total),
        "offsets span the rows"
    );
    assert!(
        offsets.windows(2).all(|w| w[0] <= w[1]),
        "segment offsets must be non-decreasing"
    );
}

/// Softmax of one slice in place, with [`softmax_rows`]' arithmetic.
fn softmax_in_place(x: &mut [f32]) {
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in x.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f32 = x.iter().sum::<f32>().max(1e-12);
    for v in x.iter_mut() {
        *v /= sum;
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044_715;

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + GELU_A * x * x * x)).tanh())
}

fn gelu_grad(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let t = u.tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
}

/// Row-wise softmax (shared by forward and loss backward).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let (n, c) = x.shape();
    let mut out = Tensor::zeros(n, c);
    for r in 0..n {
        let row = x.row_slice(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum::<f32>().max(1e-12);
        for (j, e) in exps.iter().enumerate() {
            out.set(r, j, e / sum);
        }
    }
    out
}

/// Row-wise L2 normalization.
pub fn l2_normalize_rows(x: &Tensor) -> Tensor {
    let (n, c) = x.shape();
    let mut out = Tensor::zeros(n, c);
    for r in 0..n {
        let norm = x
            .row_slice(r)
            .iter()
            .map(|&v| v * v)
            .sum::<f32>()
            .sqrt()
            .max(1e-12);
        for j in 0..c {
            out.set(r, j, x.get(r, j) / norm);
        }
    }
    out
}

/// Row-wise layer normalization (ε = 1e-5, no affine).
pub fn layer_norm_rows(x: &Tensor) -> Tensor {
    let (n, c) = x.shape();
    let d = c as f32;
    let mut out = Tensor::zeros(n, c);
    for r in 0..n {
        let mean: f32 = x.row_slice(r).iter().sum::<f32>() / d;
        let var: f32 = x
            .row_slice(r)
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / d;
        let std = (var + 1e-5).sqrt();
        for j in 0..c {
            out.set(r, j, (x.get(r, j) - mean) / std);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_gradients() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[1.0, 1.0]]));
        let wv = g.param(w, &store);
        let y = g.matmul(x, wv); // [4, 6]
        let loss = g.sum_all(y);
        assert_eq!(g.value(loss).get(0, 0), 10.0);
        let grads = g.backward(loss);
        // dL/dW = xᵀ · ones = all ones.
        assert_eq!(grads.get(w).unwrap(), &Tensor::full(2, 2, 1.0));
    }

    #[test]
    fn chain_rule_through_activation() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[0.5]]));
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&[&[2.0]]));
        let wv = g.param(w, &store);
        let y = g.matmul(x, wv); // 1.0
        let t = g.tanh(y);
        let loss = g.sum_all(t);
        let grads = g.backward(loss);
        // d tanh(wx)/dw = x(1-tanh²(1)) = 2 * (1 - tanh(1)^2).
        let expected = 2.0 * (1.0 - 1.0f32.tanh().powi(2));
        assert!((grads.get(w).unwrap().get(0, 0) - expected).abs() < 1e-5);
    }

    #[test]
    fn gather_rows_scatters_gradient() {
        let mut store = ParamStore::new();
        let e = store.add(
            "emb",
            Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]),
        );
        let mut g = Graph::new();
        let ev = g.param(e, &store);
        let picked = g.gather_rows(ev, &[2, 2, 0]);
        let loss = g.sum_all(picked);
        let grads = g.backward(loss);
        let ge = grads.get(e).unwrap();
        assert_eq!(ge.row_slice(0), &[1.0, 1.0]);
        assert_eq!(ge.row_slice(1), &[0.0, 0.0]);
        assert_eq!(ge.row_slice(2), &[2.0, 2.0]);
    }

    #[test]
    fn cross_entropy_decreases_toward_label() {
        let mut store = ParamStore::new();
        let w = store.add("logits", Tensor::from_rows(&[&[0.0, 0.0, 0.0]]));
        let mut g = Graph::new();
        let l = g.param(w, &store);
        let loss = g.cross_entropy_rows(l, &[1]);
        let grads = g.backward(loss);
        let gl = grads.get(w).unwrap();
        assert!(gl.get(0, 1) < 0.0, "label logit pushed up");
        assert!(gl.get(0, 0) > 0.0 && gl.get(0, 2) > 0.0);
    }

    #[test]
    fn smooth_l1_gradient_clamps() {
        let mut store = ParamStore::new();
        let w = store.add("p", Tensor::from_rows(&[&[5.0, 0.2]]));
        let mut g = Graph::new();
        let p = g.param(w, &store);
        let loss = g.smooth_l1(p, Tensor::row(&[0.0, 0.0]));
        let grads = g.backward(loss);
        let gp = grads.get(w).unwrap();
        assert!((gp.get(0, 0) - 0.5).abs() < 1e-6, "linear region: 1/len");
        assert!((gp.get(0, 1) - 0.1).abs() < 1e-6, "quadratic region: d/len");
    }

    #[test]
    fn shared_subexpression_accumulates() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_rows(&[&[3.0]]));
        let mut g = Graph::new();
        let wv = g.param(w, &store);
        let y = g.add(wv, wv); // 2w
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(w).unwrap().get(0, 0), 2.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, 0.0, 0.0]]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row_slice(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_produces_unit_rows() {
        let x = Tensor::from_rows(&[&[3.0, 4.0]]);
        let y = l2_normalize_rows(&x);
        assert!((y.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((y.get(0, 1) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let y = layer_norm_rows(&x);
        let mean: f32 = y.row_slice(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row_slice(0).iter().map(|&v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-2);
    }

    #[test]
    fn mul_scalar_var_gradients() {
        let mut store = ParamStore::new();
        let s = store.add("s", Tensor::from_rows(&[&[2.0]]));
        let mut g = Graph::new();
        let x = g.input(Tensor::row(&[1.0, 3.0]));
        let sv = g.param(s, &store);
        let y = g.mul_scalar_var(x, sv);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(s).unwrap().get(0, 0), 4.0, "sum of x");
    }

    /// `(1 − σ(xW))∘(xW)` summed, with `x` and the ones either constants or
    /// parameters.
    fn gate_like(constants: bool) -> (Gradients, ParamId, Vec<bool>) {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::xavier(3, 2, 5));
        let x_t = Tensor::xavier(4, 3, 6);
        let ones_t = Tensor::full(4, 2, 1.0);
        let (x_id, ones_id) = (
            store.add("x", x_t.clone()),
            store.add("ones", ones_t.clone()),
        );
        let mut g = Graph::new();
        let (x, ones) = if constants {
            (g.input(x_t), g.input(ones_t))
        } else {
            (g.param(x_id, &store), g.param(ones_id, &store))
        };
        let wv = g.param(w, &store);
        let xw = g.matmul(x, wv);
        let z = g.sigmoid(xw);
        let keep = g.sub(ones, z);
        let both = g.concat_rows(&[ones, keep]);
        let picked = g.gather_multi(&[(both, 5), (ones, 0), (xw, 1)]);
        let prod = g.mul(keep, xw);
        let total = g.sum_all(prod);
        let extra = g.sum_all(picked);
        let loss = g.add(total, extra);
        let flags = [x, ones, wv, xw, keep, both, picked].map(|v| g.requires_grad(v));
        (g.backward(loss), w, flags.to_vec())
    }

    #[test]
    fn constants_get_no_gradient_and_param_gradients_are_unchanged() {
        // Every gradient slot `backward` fills is debug-asserted to require
        // a gradient, so this also checks no tensor is allocated for the
        // constant operands.
        let (with_consts, w, flags) = gate_like(true);
        let (all_params, w2, _) = gate_like(false);
        assert_eq!(flags, [false, false, true, true, true, true, true]);
        let (a, b) = (with_consts.get(w).unwrap(), all_params.get(w2).unwrap());
        assert_eq!(
            a.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "parameter gradient is bit-identical"
        );
        assert_eq!(with_consts.len(), 1, "only the parameter has a gradient");
    }

    #[test]
    fn input_only_subexpressions_need_no_gradient() {
        let mut g = Graph::new();
        let x = g.input(Tensor::xavier(2, 2, 1));
        let y = g.tanh(x);
        let z = g.matmul(y, x);
        assert!(!g.requires_grad(z));
        let loss = g.sum_all(z);
        assert!(g.backward(loss).is_empty());
    }

    /// Value of `h'` and the gradients of `Σ r∘h'` toward `h` and `pre`,
    /// through [`Graph::gated_update`] or the seven-op chain it fuses.
    fn gate_two_ways(fused: bool, n: usize, d: usize, seed: u64) -> [Tensor; 3] {
        let mut store = ParamStore::new();
        let h = store.add("h", Tensor::xavier(n, d, seed).map(|x| 3.0 * x));
        let pre = store.add("pre", Tensor::xavier(n, 2 * d, seed + 1).map(|x| 6.0 * x));
        let mut g = Graph::new();
        let (hv, pv) = (g.param(h, &store), g.param(pre, &store));
        let out = if fused {
            g.gated_update(hv, pv)
        } else {
            let z_pre = g.slice_cols(pv, 0, d);
            let z = g.sigmoid(z_pre);
            let c_pre = g.slice_cols(pv, d, d);
            let c = g.tanh(c_pre);
            let delta = g.sub(c, hv);
            let step = g.mul(z, delta);
            g.add(hv, step)
        };
        let r = g.input(Tensor::xavier(n, d, seed + 2));
        let weighted = g.mul(out, r);
        let loss = g.sum_all(weighted);
        let value = g.value(out).clone();
        let grads = g.backward(loss);
        [
            value,
            grads.get(h).unwrap().clone(),
            grads.get(pre).unwrap().clone(),
        ]
    }

    #[test]
    fn gated_update_matches_the_seven_op_chain() {
        for (n, d, seed) in [(1, 1, 70), (7, 5, 71), (33, 16, 72), (80, 32, 73)] {
            let [v1, dh1, dp1] = gate_two_ways(true, n, d, seed);
            let [v2, dh2, dp2] = gate_two_ways(false, n, d, seed);
            assert_eq!(
                v1.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                v2.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "forward {n}x{d} is bit-identical"
            );
            for (what, a, b) in [("h", dh1, dh2), ("pre", dp1, dp2)] {
                assert_eq!(a.shape(), b.shape(), "d{what} shape");
                for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
                    assert!((x - y).abs() <= 1e-6, "d{what}[{i}] {n}x{d}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn segment_forms_match_their_dense_counterparts() {
        let mut g = Graph::new();
        let a = g.input(Tensor::xavier(5, 4, 1));
        let w = g.input(Tensor::xavier(4, 3, 2));
        let dense = g.matmul(a, w);
        let seg = g.segment_matmul(a, &[w], &[0, 5]);
        assert_eq!(g.value(dense), g.value(seg), "one segment is a matmul");

        // Uniform two-pin segments: the mean equals (v0 + v1)·½ and the
        // softmax equals softmax_rows over the stacked scores.
        let v = g.input(Tensor::xavier(4, 3, 3));
        let offsets = [0, 2, 4];
        let mean = g.segment_mean(v, &offsets);
        let top = g.gather_rows(v, &[0, 2]);
        let bottom = g.gather_rows(v, &[1, 3]);
        let sum = g.add(top, bottom);
        let halved = g.scale(sum, 0.5);
        assert_eq!(g.value(mean), g.value(halved));

        let q = g.input(Tensor::xavier(2, 3, 4));
        let bias = g.input(Tensor::row(&[0.25, -0.5]));
        let alpha = g.segment_softmax(q, v, bias, &[0, 1, 0, 1], &offsets, 1.0);
        let scores: Vec<f32> = (0..4)
            .map(|p| {
                let (qi, kp) = (g.value(q).row_slice(p / 2), g.value(v).row_slice(p));
                qi.iter().zip(kp).map(|(&x, &y)| x * y).sum::<f32>() + [0.25, -0.5][p % 2]
            })
            .collect();
        let dense = softmax_rows(&Tensor::from_vec(scores, 2, 2));
        assert_eq!(g.value(alpha).data(), dense.data());
    }
}
