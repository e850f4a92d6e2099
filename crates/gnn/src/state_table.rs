//! Per-node state tracking for asynchronous propagation.
//!
//! Keeping all node states in one `n × d` tape variable would make every
//! level update clone the full matrix (scatter) and every message gather
//! allocate full-size gradients — O(n) work *per level* instead of per
//! node. [`StateTable`] instead records each level's output as its own
//! tape variable and remembers, per node, which variable and row hold its
//! current state. Every read is one multi-source gather, so one
//! propagation sweep is O(total nodes) and one tape op per read.

use moss_tensor::{Graph, Var};

/// Tracks which tape variable (and row) currently holds each node's state.
#[derive(Debug, Clone)]
pub struct StateTable {
    loc: Vec<(Var, usize)>,
}

impl StateTable {
    /// All nodes start in `initial` (an `n × d` variable), row = node index.
    pub fn new(initial: Var, n: usize) -> StateTable {
        StateTable {
            loc: (0..n).map(|i| (initial, i)).collect(),
        }
    }

    /// Gathers the current states of `nodes` into a `|nodes| × d` variable
    /// with one tape op, however many updates the rows come from.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or any index is out of range.
    pub fn gather(&self, g: &mut Graph, nodes: &[usize]) -> Var {
        let rows: Vec<(Var, usize)> = nodes.iter().map(|&node| self.loc[node]).collect();
        g.gather_multi(&rows)
    }

    /// Records `new` (a `|nodes| × d` variable) as the fresh state of
    /// `nodes`.
    pub fn update(&mut self, new: Var, nodes: &[usize]) {
        for (row, &node) in nodes.iter().enumerate() {
            self.loc[node] = (new, row);
        }
    }

    /// Assembles the full `n × d` state matrix in node order (one op).
    pub fn assemble(&self, g: &mut Graph) -> Var {
        g.gather_multi(&self.loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moss_tensor::Tensor;

    #[test]
    fn gather_and_update_track_rows() {
        let mut g = Graph::new();
        let init = g.input(Tensor::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]));
        let mut table = StateTable::new(init, 4);
        // Update nodes 1 and 3 with fresh values.
        let fresh = g.input(Tensor::from_rows(&[&[10.0], &[30.0]]));
        table.update(fresh, &[1, 3]);
        let full = table.assemble(&mut g);
        assert_eq!(
            g.value(full).data(),
            &[0.0, 10.0, 2.0, 30.0],
            "updated rows replaced, others intact"
        );
        // Gather mixes chunks correctly.
        let mix = table.gather(&mut g, &[3, 0, 1]);
        assert_eq!(g.value(mix).data(), &[30.0, 0.0, 10.0]);
    }

    #[test]
    fn consecutive_same_chunk_nodes_use_one_gather() {
        let mut g = Graph::new();
        let init = g.input(Tensor::zeros(8, 2));
        let mut table = StateTable::new(init, 8);
        let before = g.len();
        let _ = table.gather(&mut g, &[2, 3, 4]);
        // Single chunk → exactly one gather op, no concat.
        assert_eq!(g.len() - before, 1);

        // Rows from four chunks are still one gather, and so is assembly.
        for (k, nodes) in [[1, 3], [4, 6], [0, 7]].iter().enumerate() {
            let fresh = g.input(Tensor::full(2, 2, k as f32 + 1.0));
            table.update(fresh, nodes);
        }
        let before = g.len();
        let mix = table.gather(&mut g, &[7, 2, 3, 4, 0]);
        assert_eq!(g.len() - before, 1, "four sources, one gather");
        assert_eq!(
            g.value(mix).data(),
            &[3.0, 3.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        );
        let before = g.len();
        let _ = table.assemble(&mut g);
        assert_eq!(g.len() - before, 1, "assembly is one op");
    }

    #[test]
    fn gradients_flow_through_table() {
        use moss_tensor::ParamStore;
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let mut g = Graph::new();
        let init = g.param(p, &store);
        let mut table = StateTable::new(init, 3);
        let picked = table.gather(&mut g, &[0, 2]);
        let doubled = g.scale(picked, 2.0);
        table.update(doubled, &[0, 2]);
        let full = table.assemble(&mut g);
        let loss = g.sum_all(full);
        let grads = g.backward(loss);
        // Nodes 0 and 2 contribute doubled, node 1 contributes once.
        assert_eq!(grads.get(p).unwrap().data(), &[2.0, 1.0, 2.0]);
    }
}
