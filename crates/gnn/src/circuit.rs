//! Preprocessed circuit structure for GNN propagation: the level-ordered
//! update schedule (paper Fig. 4), one entry per combinational level with
//! its fanins in CSR form.

use moss_netlist::{Levelization, Netlist, NetlistError, NodeId};
use moss_tensor::Tensor;

use crate::clustering::Clustering;

/// Pins per node the aggregators read (and per-aggregator pin biases);
/// fanins beyond the third are ignored.
pub const MAX_PINS: usize = 3;

/// One combinational level: nodes whose fanins are all settled once the
/// earlier levels have run, so one batched pass updates all of them.
///
/// Nodes are sorted by (cluster, node index), so each aggregator's nodes —
/// and, through the CSR offsets, their pins — form one contiguous run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    /// Node indices updated at this level.
    pub nodes: Vec<usize>,
    /// Aggregator (cluster) id of each run of `nodes`, ascending.
    pub clusters: Vec<usize>,
    /// Run boundaries over `nodes`: run `r` is rows
    /// `run_bounds[r]..run_bounds[r + 1]` (`clusters.len() + 1` entries).
    pub run_bounds: Vec<usize>,
    /// CSR offsets: the pins of `nodes[i]` are
    /// `fanins[fanin_offsets[i]..fanin_offsets[i + 1]]`.
    pub fanin_offsets: Vec<usize>,
    /// Pin source node indices, node-major and in pin order.
    pub fanins: Vec<usize>,
    /// For each pin, `run · MAX_PINS + pin position`: its row-major index in
    /// the `clusters.len() × MAX_PINS` table of this level's pin biases.
    pub pin_bias_index: Vec<usize>,
    /// Largest fanin count at this level (1 to [`MAX_PINS`]).
    pub max_arity: usize,
}

impl Level {
    /// Pin-row boundaries of the cluster runs (the CSR offsets at
    /// `run_bounds`).
    pub fn pin_bounds(&self) -> Vec<usize> {
        self.run_bounds
            .iter()
            .map(|&b| self.fanin_offsets[b])
            .collect()
    }
}

/// A netlist prepared for propagation: features, clustering, and the
/// two-phase schedule.
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    /// Node feature matrix (`node_count × d_in`).
    pub features: Tensor,
    /// Node-to-aggregator assignment.
    pub clusters: Clustering,
    /// Combinational cells without fanins (tie cells), ascending. They read
    /// no other node, so each round updates them before the first level.
    pub sources: Vec<usize>,
    /// Combinational levels in ascending order (forward phase). Primary
    /// outputs ride along as one-pin "wire" updates at their driver's
    /// level + 1.
    pub comb_schedule: Vec<Level>,
    /// Indices of DFF nodes, ascending (turnaround phase).
    pub dff_nodes: Vec<usize>,
    /// The D-pin driver of each DFF in `dff_nodes`.
    pub dff_fanins: Vec<usize>,
    /// Total node count (states matrix height).
    pub node_count: usize,
}

impl CircuitGraph {
    /// Builds the propagation schedule.
    ///
    /// `features` must have one row per netlist node; `clusters` must assign
    /// every node.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is invalid or combinationally cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `features`/`clusters` sizes do not match the netlist.
    pub fn new(
        netlist: &Netlist,
        features: Tensor,
        clusters: Clustering,
    ) -> Result<CircuitGraph, NetlistError> {
        let n = netlist.node_count();
        assert_eq!(features.rows(), n, "one feature row per node");
        assert_eq!(clusters.assignment.len(), n, "one cluster per node");
        let levels = Levelization::of(netlist)?;

        let mut sources = Vec::new();
        let mut keyed: Vec<(u32, usize, NodeId)> = Vec::new();
        for &id in levels.topo_combinational() {
            if netlist.fanins(id).is_empty() {
                sources.push(id.index());
            } else {
                keyed.push((levels.level(id), clusters.assignment[id.index()], id));
            }
        }
        for id in netlist.primary_outputs() {
            keyed.push((levels.level(id) + 1, clusters.assignment[id.index()], id));
        }
        sources.sort_unstable();
        keyed.sort_unstable();

        let mut comb_schedule: Vec<Level> = Vec::new();
        let mut last_level = None;
        for (level, cluster, id) in keyed {
            if last_level != Some(level) {
                comb_schedule.push(Level {
                    nodes: Vec::new(),
                    clusters: Vec::new(),
                    run_bounds: vec![0],
                    fanin_offsets: vec![0],
                    fanins: Vec::new(),
                    pin_bias_index: Vec::new(),
                    max_arity: 0,
                });
                last_level = Some(level);
            }
            let l = comb_schedule.last_mut().expect("just pushed");
            if l.clusters.last() != Some(&cluster) {
                l.clusters.push(cluster);
                l.run_bounds.push(l.nodes.len());
            }
            l.nodes.push(id.index());
            *l.run_bounds.last_mut().expect("run open") = l.nodes.len();
            let run = l.clusters.len() - 1;
            let pins = netlist.fanins(id);
            for (p, &f) in pins.iter().take(MAX_PINS).enumerate() {
                l.fanins.push(f.index());
                l.pin_bias_index.push(run * MAX_PINS + p);
            }
            l.fanin_offsets.push(l.fanins.len());
            l.max_arity = l.max_arity.max(pins.len().min(MAX_PINS));
        }

        let dffs = netlist.dffs();
        let dff_nodes: Vec<usize> = dffs.iter().map(|d| d.index()).collect();
        let dff_fanins = dffs.iter().map(|&d| netlist.fanins(d)[0].index()).collect();

        Ok(CircuitGraph {
            features,
            clusters,
            sources,
            comb_schedule,
            dff_nodes,
            dff_fanins,
            node_count: n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster_nodes, ClusterConfig};
    use moss_netlist::CellKind;

    fn pipeline_netlist() -> Netlist {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let g2 = nl.add_cell(CellKind::Inv, "u2", &[g1]).unwrap();
        let ff = nl.add_cell(CellKind::Dff, "r0", &[g2]).unwrap();
        let g3 = nl.add_cell(CellKind::Xor2, "u3", &[ff, a]).unwrap();
        let ff2 = nl.add_cell(CellKind::Dff, "r1", &[g3]).unwrap();
        nl.add_output("y", ff2);
        nl
    }

    fn trivial_clustering(n: usize) -> Clustering {
        Clustering {
            assignment: vec![0; n],
            count: 1,
        }
    }

    #[test]
    fn schedule_covers_all_comb_cells_and_outputs() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        let cg = CircuitGraph::new(&nl, Tensor::zeros(n, 4), trivial_clustering(n)).unwrap();
        let scheduled: usize = cg.comb_schedule.iter().map(|l| l.nodes.len()).sum();
        // 3 comb cells + 1 primary output.
        assert_eq!(scheduled, 4);
        assert!(cg.sources.is_empty());
        assert_eq!(cg.dff_nodes.len(), 2);
        let r0 = nl.find("r0").unwrap().index();
        let u2 = nl.find("u2").unwrap().index();
        let at = cg.dff_nodes.iter().position(|&d| d == r0).unwrap();
        assert_eq!(cg.dff_fanins[at], u2, "D-pin driver aligned with its DFF");
    }

    #[test]
    fn levels_respect_level_order() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        let cg = CircuitGraph::new(&nl, Tensor::zeros(n, 4), trivial_clustering(n)).unwrap();
        // u1 (level 1) must be scheduled before u2 (level 2).
        let pos = |name: &str| {
            let id = nl.find(name).unwrap().index();
            cg.comb_schedule
                .iter()
                .position(|l| l.nodes.contains(&id))
                .unwrap()
        };
        assert!(pos("u1") < pos("u2"));
        // A level never reads a node it updates.
        for l in &cg.comb_schedule {
            assert!(l.fanins.iter().all(|f| !l.nodes.contains(f)));
        }
    }

    #[test]
    fn fanins_align_with_nodes() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        let cg = CircuitGraph::new(&nl, Tensor::zeros(n, 4), trivial_clustering(n)).unwrap();
        for l in &cg.comb_schedule {
            assert_eq!(l.fanin_offsets.len(), l.nodes.len() + 1);
            assert_eq!(*l.fanin_offsets.last().unwrap(), l.fanins.len());
            assert_eq!(l.pin_bias_index.len(), l.fanins.len());
            for (i, &node) in l.nodes.iter().enumerate() {
                let pins = &l.fanins[l.fanin_offsets[i]..l.fanin_offsets[i + 1]];
                let expect: Vec<usize> = nl
                    .fanins(NodeId::new(node))
                    .iter()
                    .map(|f| f.index())
                    .collect();
                assert_eq!(pins, expect.as_slice(), "pins of node {node}");
                assert!(!pins.is_empty() && pins.len() <= l.max_arity);
            }
        }
    }

    #[test]
    fn tie_cells_become_sources() {
        let mut nl = pipeline_netlist();
        let a = nl.find("a").unwrap();
        let tie = nl.add_cell(CellKind::Tie1, "t1", &[]).unwrap();
        let g = nl.add_cell(CellKind::And2, "u4", &[tie, a]).unwrap();
        nl.add_output("z", g);
        let n = nl.node_count();
        let cg = CircuitGraph::new(&nl, Tensor::zeros(n, 4), trivial_clustering(n)).unwrap();
        assert_eq!(cg.sources, vec![tie.index()]);
        assert!(cg
            .comb_schedule
            .iter()
            .all(|l| !l.nodes.contains(&tie.index())));
    }

    #[test]
    fn clustered_levels_run_by_cluster() {
        let nl = pipeline_netlist();
        let n = nl.node_count();
        // Cluster by arbitrary two-group embedding.
        let embs: Vec<Vec<f32>> = (0..n)
            .map(|i| vec![if i % 2 == 0 { 0.0 } else { 10.0 }])
            .collect();
        let st = vec![(1.0, 1.0); n];
        let clusters = cluster_nodes(
            &embs,
            &st,
            &ClusterConfig {
                eps: 0.5,
                min_pts: 1,
                max_clusters: 4,
                structure_weight: 0.0,
            },
        );
        let cg = CircuitGraph::new(&nl, Tensor::zeros(n, 4), clusters.clone()).unwrap();
        for l in &cg.comb_schedule {
            assert_eq!(l.run_bounds.len(), l.clusters.len() + 1);
            assert!(
                l.clusters.windows(2).all(|w| w[0] < w[1]),
                "one run per cluster"
            );
            for (r, &c) in l.clusters.iter().enumerate() {
                for &node in &l.nodes[l.run_bounds[r]..l.run_bounds[r + 1]] {
                    assert_eq!(clusters.assignment[node], c);
                }
            }
            let pin_bounds = l.pin_bounds();
            for (r, w) in pin_bounds.windows(2).enumerate() {
                for &slot in &l.pin_bias_index[w[0]..w[1]] {
                    assert_eq!(slot / MAX_PINS, r, "pin bias row follows the run");
                }
            }
        }
    }
}
