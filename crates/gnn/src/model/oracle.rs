//! The per-group propagation [`CircuitGnn`] used before the level schedule,
//! kept as the test oracle for the level-batched forward pass.
//!
//! It schedules one small attention block per (level, cluster, arity)
//! group, with per-pin gathers, column-stacked scores, a dense row softmax
//! and a `1 − z` gate — different op sequences for the same model, so
//! agreement with [`CircuitGnn::forward`] (within float reordering) checks
//! the CSR schedule, the segment ops and the stacked gate weights together.
//!
//! The turnaround phase captures every DFF in one update here too. The old
//! schedule updated DFFs one cluster at a time, so with several clusters a
//! DFF fed by another cluster's DFF saw that DFF's fresh state; one clock
//! edge for all DFFs is the model the level schedule implements.

use moss_netlist::{Levelization, Netlist};
use moss_tensor::{Graph, ParamStore, Tensor, Var};

use super::{CircuitGnn, GnnOutput};
use crate::circuit::CircuitGraph;
use crate::state_table::StateTable;

/// One batched update group: nodes at the same level, in the same cluster,
/// with the same fanin arity.
#[derive(Debug, Clone)]
struct Group {
    cluster: usize,
    arity: usize,
    nodes: Vec<usize>,
    /// `fanins[p][i]` drives pin `p` of `nodes[i]`.
    fanins: [Vec<usize>; 3],
}

/// The (level, cluster, arity) schedule, plus all DFFs as one group.
fn group_schedule(netlist: &Netlist, circuit: &CircuitGraph) -> (Vec<Group>, Group) {
    let assignment = &circuit.clusters.assignment;
    let levels = Levelization::of(netlist).expect("levelizable");
    let mut keyed = Vec::new();
    for &id in levels.topo_combinational() {
        let arity = netlist.fanins(id).len().min(3);
        keyed.push((levels.level(id), assignment[id.index()], arity, id));
    }
    for id in netlist.primary_outputs() {
        keyed.push((levels.level(id) + 1, assignment[id.index()], 1, id));
    }
    keyed.sort();
    let mut comb: Vec<Group> = Vec::new();
    let mut last_key = None;
    for (level, cluster, arity, id) in keyed {
        if last_key != Some((level, cluster, arity)) {
            comb.push(Group {
                cluster,
                arity,
                nodes: Vec::new(),
                fanins: [Vec::new(), Vec::new(), Vec::new()],
            });
            last_key = Some((level, cluster, arity));
        }
        let g = comb.last_mut().expect("just pushed");
        g.nodes.push(id.index());
        for (p, &f) in netlist.fanins(id).iter().take(3).enumerate() {
            g.fanins[p].push(f.index());
        }
    }
    let dffs = Group {
        cluster: 0,
        arity: 1,
        nodes: circuit.dff_nodes.clone(),
        fanins: [circuit.dff_fanins.clone(), Vec::new(), Vec::new()],
    };
    (comb, dffs)
}

/// Parameter handles for one gated update.
#[derive(Debug, Clone, Copy)]
struct GateWeights {
    wz: Var,
    uz: Var,
    vz: Option<Var>,
    bz: Var,
    wh: Var,
    uh: Var,
    vh: Option<Var>,
    bh: Var,
}

/// The per-group forward pass over `circuit`, built from `netlist`.
pub(super) fn forward(
    gnn: &CircuitGnn,
    g: &mut Graph,
    store: &ParamStore,
    netlist: &Netlist,
    circuit: &CircuitGraph,
) -> GnnOutput {
    let (comb, dffs) = group_schedule(netlist, circuit);
    let w_in = g.param(gnn.w_in, store);
    let b_in = g.param(gnn.b_in, store);
    let up = GateWeights {
        wz: g.param(gnn.wz, store),
        uz: g.param(gnn.uz, store),
        vz: Some(g.param(gnn.vz, store)),
        bz: g.param(gnn.bz, store),
        wh: g.param(gnn.wh, store),
        uh: g.param(gnn.uh, store),
        vh: Some(g.param(gnn.vh, store)),
        bh: g.param(gnn.bh, store),
    };
    let dff_up = GateWeights {
        wz: g.param(gnn.wdz, store),
        uz: g.param(gnn.udz, store),
        vz: None,
        bz: g.param(gnn.bdz, store),
        wh: g.param(gnn.wdh, store),
        uh: g.param(gnn.udh, store),
        vh: None,
        bh: g.param(gnn.bdh, store),
    };
    let aggs: Vec<(Var, Var, Var, Var)> = gnn
        .aggs
        .iter()
        .map(|a| {
            (
                g.param(a.wq, store),
                g.param(a.wk, store),
                g.param(a.wv, store),
                g.param(a.pin_bias, store),
            )
        })
        .collect();
    let w_ro = g.param(gnn.w_ro, store);
    let b_ro = g.param(gnn.b_ro, store);

    let x = g.input(circuit.features.clone());
    let proj = g.matmul(x, w_in);
    let proj = g.add_row(proj, b_in);
    let h0 = g.tanh(proj);
    let mut table = StateTable::new(h0, circuit.node_count);
    for _ in 0..gnn.config.iterations {
        for group in &comb {
            update_group(gnn, g, group, &mut table, h0, &aggs, &up);
        }
        if gnn.config.two_phase && !dffs.nodes.is_empty() {
            let h_v = table.gather(g, &dffs.nodes);
            let h_d = table.gather(g, &dffs.fanins[0]);
            let new = gated_update(g, h_v, h_d, None, &dff_up);
            table.update(new, &dffs.nodes);
        }
    }
    let states = table.assemble(g);
    let pooled = g.mean_rows(states);
    let ro = g.matmul(pooled, w_ro);
    let ro = g.add_row(ro, b_ro);
    let graph_embedding = g.tanh(ro);
    GnnOutput {
        states,
        graph_embedding,
        h0,
    }
}

fn update_group(
    gnn: &CircuitGnn,
    g: &mut Graph,
    group: &Group,
    table: &mut StateTable,
    h0: Var,
    aggs: &[(Var, Var, Var, Var)],
    up: &GateWeights,
) {
    let d = gnn.config.d_hidden;
    let h_v = table.gather(g, &group.nodes);
    let h0_v = g.gather_rows(h0, &group.nodes);

    let msg = if group.arity == 0 {
        None
    } else {
        let (wq, wk, wv, pin_bias) = aggs[group.cluster];
        let pin_states: Vec<Var> = (0..group.arity)
            .map(|p| table.gather(g, &group.fanins[p]))
            .collect();
        let rows = group.nodes.len();
        let stacked_pins = g.concat_rows(&pin_states);
        let stacked_values = g.matmul(stacked_pins, wv);
        let pin_rows: Vec<Vec<usize>> = (0..group.arity)
            .map(|p| (p * rows..(p + 1) * rows).collect())
            .collect();
        let values: Vec<Var> = pin_rows
            .iter()
            .map(|idx| g.gather_rows(stacked_values, idx))
            .collect();
        if gnn.config.attention && group.arity > 1 {
            let q = g.matmul(h_v, wq);
            let ones = g.input(Tensor::full(d, 1, 1.0));
            let stacked_keys = g.matmul(stacked_pins, wk);
            let mut scores: Vec<Var> = Vec::with_capacity(group.arity);
            for idx in &pin_rows {
                let k = g.gather_rows(stacked_keys, idx);
                let qk = g.mul(q, k);
                let s = g.matmul(qk, ones);
                scores.push(g.scale(s, 1.0 / (d as f32).sqrt()));
            }
            let mut stacked = scores[0];
            for &s in &scores[1..] {
                stacked = g.concat_cols(stacked, s);
            }
            let bias = g.slice_cols(pin_bias, 0, group.arity);
            let stacked = g.add_row(stacked, bias);
            let alpha = g.softmax_rows(stacked);
            let mut acc: Option<Var> = None;
            for (p, &v) in values.iter().enumerate() {
                let a_p = g.slice_cols(alpha, p, 1);
                let contrib = g.mul_col(v, a_p);
                acc = Some(match acc {
                    Some(prev) => g.add(prev, contrib),
                    None => contrib,
                });
            }
            acc
        } else {
            let mut acc = values[0];
            for &v in &values[1..] {
                acc = g.add(acc, v);
            }
            Some(g.scale(acc, 1.0 / group.arity as f32))
        }
    };

    let msg = msg.unwrap_or(h0_v);
    let new = gated_update(g, h_v, msg, Some(h0_v), up);
    table.update(new, &group.nodes);
}

fn gated_update(g: &mut Graph, h: Var, m: Var, h0: Option<Var>, w: &GateWeights) -> Var {
    let (n, d) = g.value(h).shape();
    let mut zsum = {
        let a = g.matmul(h, w.wz);
        let b = g.matmul(m, w.uz);
        g.add(a, b)
    };
    if let (Some(h0), Some(vz)) = (h0, w.vz) {
        let c = g.matmul(h0, vz);
        zsum = g.add(zsum, c);
    }
    let zsum = g.add_row(zsum, w.bz);
    let z = g.sigmoid(zsum);
    let mut hsum = {
        let a = g.matmul(h, w.wh);
        let b = g.matmul(m, w.uh);
        g.add(a, b)
    };
    if let (Some(h0), Some(vh)) = (h0, w.vh) {
        let c = g.matmul(h0, vh);
        hsum = g.add(hsum, c);
    }
    let hsum = g.add_row(hsum, w.bh);
    let cand = g.tanh(hsum);
    let ones = g.input(Tensor::full(n, d, 1.0));
    let keep = g.sub(ones, z);
    let a = g.mul(keep, h);
    let b = g.mul(z, cand);
    g.add(a, b)
}
