//! The MOSS circuit GNN: per-cluster attention aggregators with edge
//! positional encoding (Fig. 5) and two-phase asynchronous temporal
//! propagation (Fig. 4b), with a mean-pooling readout (Fig. 4c).
//!
//! Each round updates a combinational level in one batched tape pass —
//! gather node and pin states, per-cluster projections, a segment softmax
//! over each node's pins, a (weighted) segment sum and one gated update —
//! then every DFF in one turnaround update.
//!
//! Ablation switches mirror the paper's model variants: the adaptive
//! attention aggregator can be replaced by a uniform mean aggregator, and
//! the turnaround (feedback) phase can be disabled.

use moss_tensor::{Graph, ParamId, ParamStore, Tensor, Var};

use crate::circuit::{CircuitGraph, Level, MAX_PINS};
use crate::state_table::StateTable;

#[cfg(test)]
mod oracle;

/// GNN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnnConfig {
    /// Input feature width (structural ⊕ LLM features).
    pub d_in: usize,
    /// Hidden state width.
    pub d_hidden: usize,
    /// Number of two-phase propagation rounds (paper: e.g. 10).
    pub iterations: usize,
    /// Number of dedicated aggregators (≥ max cluster id + 1).
    pub aggregators: usize,
    /// Attention-based adaptive aggregation (`false` = uniform mean — the
    /// "w/o adaptive aggregator" ablation).
    pub attention: bool,
    /// Run the turnaround (DFF feedback) phase (`false` = single-phase).
    pub two_phase: bool,
}

impl GnnConfig {
    /// A small configuration for CPU experiments.
    pub fn small(d_in: usize) -> GnnConfig {
        GnnConfig {
            d_in,
            d_hidden: 16,
            iterations: 4,
            aggregators: 6,
            attention: true,
            two_phase: true,
        }
    }
}

/// Per-aggregator attention parameters.
#[derive(Debug, Clone)]
struct AggParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    pin_bias: ParamId,
}

/// The circuit GNN model: parameter handles + forward pass builder.
#[derive(Debug, Clone)]
pub struct CircuitGnn {
    config: GnnConfig,
    w_in: ParamId,
    b_in: ParamId,
    aggs: Vec<AggParams>,
    // Gated (GRU-style) combinational update: z = σ(hWz + mUz + h0Vz + bz),
    // h' = (1−z)∘h + z∘tanh(hWh + mUh + h0Vh + bh).
    wz: ParamId,
    uz: ParamId,
    vz: ParamId,
    bz: ParamId,
    wh: ParamId,
    uh: ParamId,
    vh: ParamId,
    bh: ParamId,
    // Gated turnaround (DFF) update.
    wdz: ParamId,
    udz: ParamId,
    bdz: ParamId,
    wdh: ParamId,
    udh: ParamId,
    bdh: ParamId,
    w_ro: ParamId,
    b_ro: ParamId,
}

/// Forward-pass outputs.
#[derive(Debug, Clone, Copy)]
pub struct GnnOutput {
    /// Final node states (`node_count × d_hidden`).
    pub states: Var,
    /// Mean-pooled graph embedding (`1 × d_hidden`).
    pub graph_embedding: Var,
    /// Initial projected features (`node_count × d_hidden`).
    pub h0: Var,
}

impl CircuitGnn {
    /// Registers all GNN parameters into `store`.
    pub fn new(config: GnnConfig, store: &mut ParamStore, seed: u64) -> CircuitGnn {
        let d = config.d_hidden;
        let mk = |store: &mut ParamStore, name: String, r: usize, c: usize, s: u64| {
            store.get_or_add(name, Tensor::xavier(r, c, s))
        };
        let w_in = mk(store, "gnn.w_in".into(), config.d_in, d, seed);
        let b_in = store.get_or_add("gnn.b_in", Tensor::zeros(1, d));
        let mut aggs = Vec::with_capacity(config.aggregators);
        for a in 0..config.aggregators {
            let s = seed.wrapping_add(10 + a as u64 * 7);
            aggs.push(AggParams {
                wq: mk(store, format!("gnn.agg{a}.wq"), d, d, s),
                // Keys start at zero so every attention score is 0 and the
                // softmax is uniform: the adaptive aggregator *begins* as
                // mean aggregation and learns to deviate only where the
                // data supports it. Random K init hands each pin an
                // arbitrary weight before any training signal arrives.
                wk: store.get_or_add(format!("gnn.agg{a}.wk"), Tensor::zeros(d, d)),
                wv: mk(store, format!("gnn.agg{a}.wv"), d, d, s + 2),
                pin_bias: store
                    .get_or_add(format!("gnn.agg{a}.pin_bias"), Tensor::zeros(1, MAX_PINS)),
            });
        }
        CircuitGnn {
            wz: mk(store, "gnn.up.wz".into(), d, d, seed + 101),
            uz: mk(store, "gnn.up.uz".into(), d, d, seed + 102),
            vz: mk(store, "gnn.up.vz".into(), d, d, seed + 103),
            bz: store.get_or_add("gnn.up.bz", Tensor::zeros(1, d)),
            wh: mk(store, "gnn.up.wh".into(), d, d, seed + 107),
            uh: mk(store, "gnn.up.uh".into(), d, d, seed + 108),
            vh: mk(store, "gnn.up.vh".into(), d, d, seed + 109),
            bh: store.get_or_add("gnn.up.bh", Tensor::zeros(1, d)),
            wdz: mk(store, "gnn.dff.wz".into(), d, d, seed + 104),
            udz: mk(store, "gnn.dff.uz".into(), d, d, seed + 110),
            bdz: store.get_or_add("gnn.dff.bz", Tensor::zeros(1, d)),
            wdh: mk(store, "gnn.dff.wh".into(), d, d, seed + 105),
            udh: mk(store, "gnn.dff.uh".into(), d, d, seed + 111),
            bdh: store.get_or_add("gnn.dff.bh", Tensor::zeros(1, d)),
            w_ro: mk(store, "gnn.w_ro".into(), d, d, seed + 106),
            b_ro: store.get_or_add("gnn.b_ro", Tensor::zeros(1, d)),
            config,
            w_in,
            b_in,
            aggs,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// Every parameter id belonging to this model.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut out = vec![
            self.w_in, self.b_in, self.wz, self.uz, self.vz, self.bz, self.wh, self.uh, self.vh,
            self.bh, self.wdz, self.udz, self.bdz, self.wdh, self.udh, self.bdh, self.w_ro,
            self.b_ro,
        ];
        for a in &self.aggs {
            out.extend([a.wq, a.wk, a.wv, a.pin_bias]);
        }
        out
    }

    /// Builds the full two-phase propagation forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's feature width differs from `d_in` or a
    /// cluster id exceeds the aggregator count.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, circuit: &CircuitGraph) -> GnnOutput {
        let mut out = self.forward_batch(g, store, &[circuit]);
        out.pop().expect("one circuit in, one output out")
    }

    /// Builds the forward pass for several circuits on one shared tape,
    /// loading every parameter exactly once.
    ///
    /// Each circuit still gets its own propagation passes, built from the
    /// same op sequence a standalone [`CircuitGnn::forward`] call emits, so
    /// each circuit's outputs here are bit-identical to it — the batching a
    /// serving layer does never changes an answer. The win is amortization:
    /// one tape, and one load per parameter instead of one per circuit.
    ///
    /// # Panics
    ///
    /// Panics if any circuit's feature width differs from `d_in` or a
    /// cluster id exceeds the aggregator count.
    pub fn forward_batch(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        circuits: &[&CircuitGraph],
    ) -> Vec<GnnOutput> {
        let w = self.load(g, store);
        circuits
            .iter()
            .map(|circuit| self.propagate(g, &w, circuit))
            .collect()
    }

    /// Puts every parameter on the tape, with the gate weights stacked so
    /// one matmul yields both gate pre-activations.
    fn load(&self, g: &mut Graph, store: &ParamStore) -> Loaded {
        let mut p = |id: ParamId| g.param(id, store);
        let (wz, wh, uz, uh) = (p(self.wz), p(self.wh), p(self.uz), p(self.uh));
        let (vz, vh, bz, bh) = (p(self.vz), p(self.vh), p(self.bz), p(self.bh));
        let (wdz, wdh, udz, udh) = (p(self.wdz), p(self.wdh), p(self.udz), p(self.udh));
        let (bdz, bdh) = (p(self.bdz), p(self.bdh));
        let (w_in, b_in, w_ro, b_ro) = (p(self.w_in), p(self.b_in), p(self.w_ro), p(self.b_ro));
        let aggs: Vec<AggVars> = self
            .aggs
            .iter()
            .map(|a| AggVars {
                wq: p(a.wq),
                wk: p(a.wk),
                wv: p(a.wv),
                pin_bias: p(a.pin_bias),
            })
            .collect();
        Loaded {
            w_in,
            b_in,
            up: stack_gate(g, wz, wh, uz, uh),
            h0_up: g.concat_cols(vz, vh),
            up_bias: g.concat_cols(bz, bh),
            dff_up: stack_gate(g, wdz, wdh, udz, udh),
            dff_bias: g.concat_cols(bdz, bdh),
            aggs,
            w_ro,
            b_ro,
        }
    }

    /// One circuit's two-phase propagation and readout.
    fn propagate(&self, g: &mut Graph, w: &Loaded, circuit: &CircuitGraph) -> GnnOutput {
        assert_eq!(
            circuit.features.cols(),
            self.config.d_in,
            "feature width mismatch"
        );
        let x = g.input(circuit.features.clone());
        let proj = g.matmul(x, w.w_in);
        let proj = g.add_row(proj, w.b_in);
        let h0 = g.tanh(proj);
        // `h0·[Vz | Vh] + [bz | bh]` does not change across rounds: computed
        // once here, gathered per level.
        let h0_gate = g.matmul(h0, w.h0_up);
        let h0_gate = g.add_row(h0_gate, w.up_bias);

        let mut table = StateTable::new(h0, circuit.node_count);
        for _ in 0..self.config.iterations {
            // Phase 1: forward propagation PI → DFF inputs. Fanin-less
            // cells read nothing, so they go first; their message is their
            // own projected features.
            if !circuit.sources.is_empty() {
                let nodes = &circuit.sources;
                let h = table.gather(g, nodes);
                let msg = g.gather_rows(h0, nodes);
                let new = combinational_update(g, w, h, msg, h0_gate, nodes);
                table.update(new, nodes);
            }
            for level in &circuit.comb_schedule {
                self.update_level(g, w, level, &mut table, h0_gate);
            }
            // Phase 2: turnaround — every DFF output captures its D-side
            // state at once, like a clock edge.
            if self.config.two_phase && !circuit.dff_nodes.is_empty() {
                let h = table.gather(g, &circuit.dff_nodes);
                let d_side = table.gather(g, &circuit.dff_fanins);
                let pre = gate_preactivation(g, h, d_side, w.dff_up);
                let pre = g.add_row(pre, w.dff_bias);
                let new = g.gated_update(h, pre);
                table.update(new, &circuit.dff_nodes);
            }
        }

        let states = table.assemble(g);
        let pooled = g.mean_rows(states);
        let ro = g.matmul(pooled, w.w_ro);
        let ro = g.add_row(ro, w.b_ro);
        let graph_embedding = g.tanh(ro);
        GnnOutput {
            states,
            graph_embedding,
            h0,
        }
    }

    /// Updates every node of one level in a single batched pass: gather the
    /// node and pin states, project with each node's aggregator, attend
    /// over each node's pins (segment softmax + weighted segment sum; a
    /// segment mean without attention or when no node has two pins), then
    /// one gated update.
    fn update_level(
        &self,
        g: &mut Graph,
        w: &Loaded,
        level: &Level,
        table: &mut StateTable,
        h0_gate: Var,
    ) {
        let last = *level.clusters.last().expect("a level has nodes");
        assert!(
            last < w.aggs.len(),
            "cluster {last} exceeds aggregator count {}",
            w.aggs.len()
        );
        let h = table.gather(g, &level.nodes);
        let pins = table.gather(g, &level.fanins);
        let pin_bounds = level.pin_bounds();
        let values = project(g, pins, &w.aggs, level, &pin_bounds, |a| a.wv);
        let msg = if self.config.attention && level.max_arity > 1 {
            let q = project(g, h, &w.aggs, level, &level.run_bounds, |a| a.wq);
            let k = project(g, pins, &w.aggs, level, &pin_bounds, |a| a.wk);
            let bias = match level.clusters.as_slice() {
                &[c] => w.aggs[c].pin_bias,
                many => {
                    let rows: Vec<Var> = many.iter().map(|&c| w.aggs[c].pin_bias).collect();
                    g.concat_rows(&rows)
                }
            };
            let scale = 1.0 / (self.config.d_hidden as f32).sqrt();
            let alpha = g.segment_softmax(
                q,
                k,
                bias,
                &level.pin_bias_index,
                &level.fanin_offsets,
                scale,
            );
            g.segment_sum(values, alpha, &level.fanin_offsets)
        } else {
            g.segment_mean(values, &level.fanin_offsets)
        };
        let new = combinational_update(g, w, h, msg, h0_gate, &level.nodes);
        table.update(new, &level.nodes);
    }
}

/// Per-aggregator attention weights on the tape.
#[derive(Debug, Clone, Copy)]
struct AggVars {
    wq: Var,
    wk: Var,
    wv: Var,
    pin_bias: Var,
}

/// Every parameter of one forward pass, loaded onto the tape once.
#[derive(Debug)]
struct Loaded {
    w_in: Var,
    b_in: Var,
    /// `[[Wz Wh]; [Uz Uh]]`: `[h | m]` times this is both gates' state and
    /// message terms.
    up: Var,
    /// `[Vz | Vh]`, applied to `h0`.
    h0_up: Var,
    /// `[bz | bh]`.
    up_bias: Var,
    /// `[[Wdz Wdh]; [Udz Udh]]` for the turnaround update.
    dff_up: Var,
    /// `[bdz | bdh]`.
    dff_bias: Var,
    aggs: Vec<AggVars>,
    w_ro: Var,
    b_ro: Var,
}

/// `[[w_z w_h]; [u_z u_h]]` (`2d × 2d`).
fn stack_gate(g: &mut Graph, w_z: Var, w_h: Var, u_z: Var, u_h: Var) -> Var {
    let top = g.concat_cols(w_z, w_h);
    let bottom = g.concat_cols(u_z, u_h);
    g.concat_rows(&[top, bottom])
}

/// `x` times the aggregator weight `pick` of each row's cluster: a plain
/// matmul when the level has one cluster, else one row-segmented matmul
/// over `bounds` (the level's cluster runs, in `x`'s rows).
fn project(
    g: &mut Graph,
    x: Var,
    aggs: &[AggVars],
    level: &Level,
    bounds: &[usize],
    pick: fn(&AggVars) -> Var,
) -> Var {
    match level.clusters.as_slice() {
        &[c] => g.matmul(x, pick(&aggs[c])),
        many => {
            let weights: Vec<Var> = many.iter().map(|&c| pick(&aggs[c])).collect();
            g.segment_matmul(x, &weights, bounds)
        }
    }
}

/// `[h | m]·W` for a stacked gate weight `W`: both gates' pre-activations
/// (`n × 2d`) before the node-specific offset.
fn gate_preactivation(g: &mut Graph, h: Var, m: Var, w: Var) -> Var {
    let hm = g.concat_cols(h, m);
    g.matmul(hm, w)
}

/// The combinational gated update of `nodes`, whose states are `h` and
/// messages `m`; the `h0` term and bias come precomputed in `h0_gate`.
///
/// GRU-style, the asynchronous-update family the DeepSeq line established
/// and MOSS adopts (§IV-B): with `[h | m | h0]` inputs,
/// `z = σ(hWz + mUz + h0Vz + bz)`, `h̃ = tanh(hWh + mUh + h0Vh + bh)` and
/// `h' = (1−z)∘h + z∘h̃`, one fused [`Graph::gated_update`] op on the
/// stacked pre-activations.
fn combinational_update(
    g: &mut Graph,
    w: &Loaded,
    h: Var,
    m: Var,
    h0_gate: Var,
    nodes: &[usize],
) -> Var {
    let pre = gate_preactivation(g, h, m, w.up);
    let offset = g.gather_rows(h0_gate, nodes);
    let pre = g.add(pre, offset);
    g.gated_update(h, pre)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitGraph;
    use crate::clustering::Clustering;
    use moss_netlist::{CellKind, Netlist};
    use moss_tensor::{Adam, Gradients};

    fn ring_counter() -> Netlist {
        let mut nl = Netlist::new("ring");
        let a = nl.add_input("en");
        let f1 = nl.add_cell(CellKind::Dff, "r1", &[a]).unwrap();
        let inv = nl.add_cell(CellKind::Inv, "u1", &[f1]).unwrap();
        let x = nl.add_cell(CellKind::Xor2, "u2", &[inv, a]).unwrap();
        let f2 = nl.add_cell(CellKind::Dff, "r2", &[x]).unwrap();
        nl.add_output("q", f2);
        nl
    }

    fn graph_for(nl: &Netlist, d_in: usize) -> CircuitGraph {
        let n = nl.node_count();
        let mut features = Tensor::zeros(n, d_in);
        for i in 0..n {
            for j in 0..d_in {
                features.set(i, j, ((i * 31 + j * 7) % 13) as f32 / 13.0 - 0.5);
            }
        }
        let clusters = Clustering {
            assignment: (0..n).map(|i| i % 2).collect(),
            count: 2,
        };
        CircuitGraph::new(nl, features, clusters).unwrap()
    }

    #[test]
    fn forward_shapes() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(GnnConfig::small(8), &mut store, 3);
        let mut g = Graph::new();
        let out = gnn.forward(&mut g, &store, &circuit);
        assert_eq!(g.value(out.states).shape(), (nl.node_count(), 16));
        assert_eq!(g.value(out.graph_embedding).shape(), (1, 16));
    }

    #[test]
    fn two_phase_moves_dff_states() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let mut cfg = GnnConfig::small(8);
        let gnn = CircuitGnn::new(cfg, &mut store, 3);
        let mut g = Graph::new();
        let out = gnn.forward(&mut g, &store, &circuit);
        let dff = nl.find("r2").unwrap().index();
        let with_phase = g.value(out.states).row_slice(dff).to_vec();
        let h0 = g.value(out.h0).row_slice(dff).to_vec();
        assert_ne!(with_phase, h0, "turnaround updated the DFF");

        // Without the turnaround phase DFF states stay at h0.
        cfg.two_phase = false;
        let mut store2 = ParamStore::new();
        let gnn2 = CircuitGnn::new(cfg, &mut store2, 3);
        let mut g2 = Graph::new();
        let out2 = gnn2.forward(&mut g2, &store2, &circuit);
        assert_eq!(
            g2.value(out2.states).row_slice(dff),
            g2.value(out2.h0).row_slice(dff)
        );
    }

    #[test]
    fn attention_starts_uniform_then_diverges_with_nonzero_keys() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut cfg = GnnConfig::small(8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(cfg, &mut store, 3);
        let mut g = Graph::new();
        let attn_out = gnn.forward(&mut g, &store, &circuit);
        let attn_emb = g.value(attn_out.graph_embedding).clone();

        cfg.attention = false;
        let mut store2 = ParamStore::new();
        let gnn2 = CircuitGnn::new(cfg, &mut store2, 3);
        let mut g2 = Graph::new();
        let mean_out = gnn2.forward(&mut g2, &store2, &circuit);
        let mean_emb = g2.value(mean_out.graph_embedding).clone();
        // Zero-initialized keys ⇒ uniform attention ⇒ identical to the
        // mean aggregator at initialization…
        assert!(attn_emb.distance(&mean_emb) < 1e-6, "starts as mean");

        // …and different once the keys move off zero (set every
        // aggregator's keys; only levels with multi-pin nodes engage).
        for a in 0..6 {
            let wk = store.find(&format!("gnn.agg{a}.wk")).unwrap();
            store.set(wk, Tensor::xavier(16, 16, 99 + a as u64));
        }
        let mut g3 = Graph::new();
        let moved = gnn.forward(&mut g3, &store, &circuit);
        let moved_emb = g3.value(moved.graph_embedding).clone();
        assert!(
            moved_emb.distance(&mean_emb) > 1e-7,
            "keys engage attention"
        );
    }

    #[test]
    fn trainable_end_to_end() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(GnnConfig::small(8), &mut store, 5);
        let mut opt = Adam::new(5e-3);
        let target = Tensor::full(1, 16, 0.3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let mut g = Graph::new();
            let out = gnn.forward(&mut g, &store, &circuit);
            let loss = g.smooth_l1(out.graph_embedding, target.clone());
            last = g.value(loss).get(0, 0);
            first.get_or_insert(last);
            let grads = g.backward(loss);
            opt.step(&mut store, &grads);
        }
        let first = first.unwrap();
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn batched_forward_is_bit_identical_to_single() {
        let nl1 = ring_counter();
        let mut nl2 = Netlist::new("chain");
        let a = nl2.add_input("a");
        let b = nl2.add_input("b");
        let g1 = nl2.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let f = nl2.add_cell(CellKind::Dff, "r1", &[g1]).unwrap();
        let g2 = nl2.add_cell(CellKind::Xor2, "u2", &[f, b]).unwrap();
        nl2.add_output("y", g2);
        let c1 = graph_for(&nl1, 8);
        let c2 = graph_for(&nl2, 8);

        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(GnnConfig::small(8), &mut store, 21);

        let mut gb = Graph::new();
        let batched = gnn.forward_batch(&mut gb, &store, &[&c1, &c2]);
        assert_eq!(batched.len(), 2);

        for (circuit, out) in [(&c1, &batched[0]), (&c2, &batched[1])] {
            let mut gs = Graph::new();
            let single = gnn.forward(&mut gs, &store, circuit);
            assert_eq!(gb.value(out.states), gs.value(single.states));
            assert_eq!(
                gb.value(out.graph_embedding),
                gs.value(single.graph_embedding)
            );
        }
    }

    /// A random netlist plus a tie cell feeding a gate: sources, mixed
    /// arities, DFF feedback (including DFF→DFF) and primary outputs.
    fn random_circuit(seed: u64, cells: usize) -> Netlist {
        let mut nl = moss_datagen::random_netlist(seed, cells);
        let tie = nl.add_cell(CellKind::Tie1, "tie", &[]).unwrap();
        let a = nl.find("i0").unwrap();
        let user = nl.add_cell(CellKind::Nand2, "tie_user", &[tie, a]).unwrap();
        nl.add_output("tie_out", user);
        nl
    }

    fn features(n: usize, d_in: usize) -> Tensor {
        let mut features = Tensor::zeros(n, d_in);
        for i in 0..n {
            for j in 0..d_in {
                features.set(i, j, ((i * 31 + j * 7) % 13) as f32 / 13.0 - 0.5);
            }
        }
        features
    }

    /// A model whose attention is not uniform: random keys and pin biases
    /// in every aggregator.
    fn engaged_model(cfg: GnnConfig) -> (CircuitGnn, ParamStore) {
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(cfg, &mut store, 17);
        for a in 0..cfg.aggregators {
            let wk = store.find(&format!("gnn.agg{a}.wk")).unwrap();
            store.set(wk, Tensor::xavier(16, 16, 300 + a as u64));
            let bias = store.find(&format!("gnn.agg{a}.pin_bias")).unwrap();
            store.set(bias, Tensor::xavier(1, 3, 400 + a as u64));
        }
        (gnn, store)
    }

    /// States, graph embedding and parameter gradients of a loss that reads
    /// every state row.
    fn run(build: impl FnOnce(&mut Graph) -> GnnOutput) -> (Tensor, Tensor, Gradients) {
        let mut g = Graph::new();
        let out = build(&mut g);
        let (n, d) = g.value(out.states).shape();
        let r = g.input(Tensor::xavier(n, d, 77));
        let weighted = g.mul(out.states, r);
        let a = g.sum_all(weighted);
        let b = g.smooth_l1(out.graph_embedding, Tensor::xavier(1, d, 78));
        let loss = g.add(a, b);
        let (states, emb) = (
            g.value(out.states).clone(),
            g.value(out.graph_embedding).clone(),
        );
        (states, emb, g.backward(loss))
    }

    /// Largest `|a − b|` relative to `max(1, max |b|)`.
    fn rel_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        let scale = b.iter().fold(1.0f32, |m, x| m.max(x.abs()));
        a.iter()
            .zip(b)
            .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
            / scale
    }

    #[test]
    fn level_forward_matches_per_group_oracle() {
        let mut multi_cluster_levels = 0;
        for (seed, cells) in [(11, 120), (12, 90)] {
            let nl = random_circuit(seed, cells);
            let n = nl.node_count();
            let assignments: [Vec<usize>; 3] = [
                vec![0; n],
                (0..n).map(|i| i % 3).collect(),
                (0..n).map(|i| (i * 7 + i / 5) % 5).collect(),
            ];
            for assignment in assignments {
                let count = assignment.iter().max().unwrap() + 1;
                let clusters = Clustering { assignment, count };
                let circuit = CircuitGraph::new(&nl, features(n, 8), clusters).unwrap();
                assert!(!circuit.sources.is_empty() && !circuit.dff_nodes.is_empty());
                multi_cluster_levels += circuit
                    .comb_schedule
                    .iter()
                    .filter(|l| l.clusters.len() >= 3 && l.max_arity > 1)
                    .count();
                for attention in [true, false] {
                    for two_phase in [true, false] {
                        let cfg = GnnConfig {
                            attention,
                            two_phase,
                            ..GnnConfig::small(8)
                        };
                        let (gnn, store) = engaged_model(cfg);
                        let (s1, e1, g1) = run(|g| gnn.forward(g, &store, &circuit));
                        let (s2, e2, g2) = run(|g| oracle::forward(&gnn, g, &store, &nl, &circuit));
                        let case = format!("seed {seed}, {count} clusters, {cfg:?}");
                        assert!(rel_diff(s1.data(), s2.data()) < 1e-5, "states: {case}");
                        assert!(rel_diff(e1.data(), e2.data()) < 1e-5, "embedding: {case}");
                        for id in gnn.param_ids() {
                            let zeros = || Tensor::zeros(1, 1);
                            let (a, b) = (g1.get(id), g2.get(id));
                            let b = b
                                .cloned()
                                .unwrap_or_else(|| a.map_or_else(zeros, |a| a.map(|_| 0.0)));
                            let a = a.cloned().unwrap_or_else(|| b.map(|_| 0.0));
                            let diff = rel_diff(a.data(), b.data());
                            assert!(
                                diff < 1e-5,
                                "gradient of {}: {diff} ({case})",
                                store.name(id)
                            );
                        }
                    }
                }
            }
        }
        assert!(
            multi_cluster_levels > 0,
            "≥3-cluster attention levels exercised"
        );
    }

    #[test]
    fn forward_tape_is_linear_in_levels() {
        // Per level: 2 gathers, 3 projections, segment softmax and sum,
        // then the gate (concat, matmul, h0-term gather, add, one fused
        // update); the extra level covers the turnaround update. Parameter
        // loads, the input projection and the readout are the constant.
        let nl = moss_datagen::random_netlist(7, 400);
        let n = nl.node_count();
        let clusters = Clustering {
            assignment: vec![0; n],
            count: 1,
        };
        let circuit = CircuitGraph::new(&nl, features(n, 8), clusters).unwrap();
        let cfg = GnnConfig::small(8);
        let (gnn, store) = engaged_model(cfg);
        let mut g = Graph::new();
        let _ = gnn.forward(&mut g, &store, &circuit);
        let levels = circuit.comb_schedule.len();
        let budget = 12 * (levels + 1) * cfg.iterations + 64;
        assert!(levels > 10, "a deep enough circuit ({levels} levels)");
        assert!(g.len() <= budget, "{} tape ops > budget {budget}", g.len());
    }

    #[test]
    fn deterministic_forward() {
        let nl = ring_counter();
        let circuit = graph_for(&nl, 8);
        let mut store = ParamStore::new();
        let gnn = CircuitGnn::new(GnnConfig::small(8), &mut store, 9);
        let mut g1 = Graph::new();
        let o1 = gnn.forward(&mut g1, &store, &circuit);
        let mut g2 = Graph::new();
        let o2 = gnn.forward(&mut g2, &store, &circuit);
        assert_eq!(g1.value(o1.states), g2.value(o2.states));
    }
}
