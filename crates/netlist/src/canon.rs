//! Canonical netlist serialization and content hashing.
//!
//! Serving and caching key circuits by *content*: two netlists that denote
//! the same circuit must produce the same key even when their nodes were
//! declared in a different order (a Verilog writer is free to emit
//! instances in any order, and parsers assign node indices by appearance).
//! The canonical form therefore orders everything by *name* — names are
//! unique within a netlist and survive reordering — and records structure
//! through name references only, never through node indices.
//!
//! The module name is deliberately excluded: renaming a design does not
//! change the circuit, and the embedding server's cache should hit on it.

use crate::graph::{Netlist, NodeId, NodeKind};

/// Renders the netlist in a declaration-order-independent canonical form.
///
/// Lines are `i <name>` (primary inputs), `c <lib_cell> <name> <fanin
/// names…>` (cells, pin order preserved), and `o <name> <driver name>`
/// (primary outputs), each group sorted lexicographically by name. Node
/// indices never appear, so any permutation of declarations yields the
/// same text.
///
/// # Examples
///
/// ```
/// use moss_netlist::{parse_verilog, canonical_form};
///
/// let a = parse_verilog("module m (input a, output y);
///                          wire n_u1; wire n_u2;
///                          INV_X1 u1 (.A(a), .Y(n_u1));
///                          INV_X1 u2 (.A(n_u1), .Y(n_u2));
///                          assign y = n_u2; endmodule")?;
/// let b = parse_verilog("module m2 (input a, output y);
///                          wire n_u1; wire n_u2;
///                          INV_X1 u2 (.A(n_u1), .Y(n_u2));
///                          INV_X1 u1 (.A(a), .Y(n_u1));
///                          assign y = n_u2; endmodule")?;
/// assert_eq!(canonical_form(&a), canonical_form(&b));
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn canonical_form(netlist: &Netlist) -> String {
    let name_of = |id: NodeId| netlist.node(id).name();

    let mut inputs: Vec<&str> = netlist.primary_inputs().into_iter().map(name_of).collect();
    inputs.sort_unstable();

    let mut cells: Vec<String> = netlist
        .node_ids()
        .filter_map(|id| match netlist.kind(id) {
            NodeKind::Cell(kind) => {
                let mut line = format!("c {} {}", kind.lib_name(), name_of(id));
                for &f in netlist.fanins(id) {
                    line.push(' ');
                    line.push_str(name_of(f));
                }
                Some(line)
            }
            _ => None,
        })
        .collect();
    cells.sort_unstable();

    let mut outputs: Vec<String> = netlist
        .primary_outputs()
        .into_iter()
        .map(|id| format!("o {} {}", name_of(id), name_of(netlist.fanins(id)[0])))
        .collect();
    outputs.sort_unstable();

    let mut out = String::new();
    for name in inputs {
        out.push_str("i ");
        out.push_str(name);
        out.push('\n');
    }
    for line in cells.iter().chain(outputs.iter()) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Content hash of the canonicalized netlist (FNV-1a over
/// [`canonical_form`]).
///
/// Invariant to node declaration order and to the module name; sensitive
/// to every cell kind, instance name, pin connection, and port. This is
/// the embedding server's cache key, so the exact value is part of the
/// on-the-wire contract — changing the canonical form silently invalidates
/// every deployed cache (a regression test pins one value).
///
/// The text is never materialized: each group's lines are rendered back to
/// back into one scratch buffer, without their shared `i `/`c `/`o `
/// prefix, sorted there as byte ranges (the whole line is the sort key, as
/// in [`canonical_form`]), and hashed in that order.
pub fn canonical_hash(netlist: &Netlist) -> u64 {
    let name_of = |id: NodeId| netlist.node(id).name().as_bytes();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut buf: Vec<u8> = Vec::new();
    let mut lines: Vec<(usize, usize)> = Vec::new();
    for prefix in [b"i ", b"c ", b"o "] {
        buf.clear();
        lines.clear();
        for id in netlist.node_ids() {
            let start = buf.len();
            match (prefix, netlist.kind(id)) {
                (b"i ", NodeKind::PrimaryInput) => buf.extend_from_slice(name_of(id)),
                (b"c ", NodeKind::Cell(kind)) => {
                    buf.extend_from_slice(kind.lib_name().as_bytes());
                    buf.push(b' ');
                    buf.extend_from_slice(name_of(id));
                    for &f in netlist.fanins(id) {
                        buf.push(b' ');
                        buf.extend_from_slice(name_of(f));
                    }
                }
                (b"o ", NodeKind::PrimaryOutput) => {
                    buf.extend_from_slice(name_of(id));
                    buf.push(b' ');
                    buf.extend_from_slice(name_of(netlist.fanins(id)[0]));
                }
                _ => continue,
            }
            lines.push((start, buf.len()));
        }
        lines.sort_unstable_by(|a, b| buf[a.0..a.1].cmp(&buf[b.0..b.1]));
        for &(start, end) in &lines {
            h = fnv1a(h, prefix);
            h = fnv1a(h, &buf[start..end]);
            h = fnv1a(h, b"\n");
        }
    }
    h
}

/// Continues a 64-bit FNV-1a hash `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;
    use crate::verilog::{parse_verilog, write_verilog};

    fn sample() -> Netlist {
        let mut nl = Netlist::new("demo");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let ff = nl.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = nl.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        nl.add_output("y", g2);
        nl.add_output("q", ff);
        nl
    }

    /// Re-emits `nl` as Verilog with the instance lines reversed, then
    /// parses it back: same circuit, different declaration order.
    fn reordered(nl: &Netlist) -> Netlist {
        let src = write_verilog(nl);
        let mut header = Vec::new();
        let mut instances = Vec::new();
        let mut tail = Vec::new();
        for line in src.lines() {
            let t = line.trim_start();
            if t.starts_with("module") || t.starts_with("wire") {
                header.push(line);
            } else if t.starts_with("assign") || t.starts_with("endmodule") {
                tail.push(line);
            } else if !t.is_empty() {
                instances.push(line);
            }
        }
        instances.reverse();
        let shuffled: Vec<&str> = header.into_iter().chain(instances).chain(tail).collect();
        parse_verilog(&shuffled.join("\n")).unwrap()
    }

    #[test]
    fn declaration_order_does_not_change_the_hash() {
        let original = parse_verilog(&write_verilog(&sample())).unwrap();
        let shuffled = reordered(&sample());
        assert_ne!(original.node_ids().count(), 0, "sanity: non-empty netlist");
        assert_eq!(canonical_form(&original), canonical_form(&shuffled));
        assert_eq!(canonical_hash(&original), canonical_hash(&shuffled));
    }

    #[test]
    fn module_name_is_excluded() {
        let mut renamed = Netlist::new("other_name");
        let a = renamed.add_input("a");
        let b = renamed.add_input("b");
        let g1 = renamed.add_cell(CellKind::Nand2, "u1", &[a, b]).unwrap();
        let ff = renamed.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = renamed.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        renamed.add_output("y", g2);
        renamed.add_output("q", ff);
        assert_eq!(canonical_hash(&sample()), canonical_hash(&renamed));
    }

    #[test]
    fn structure_changes_the_hash() {
        let base = sample();
        // Different gate kind.
        let mut other = Netlist::new("demo");
        let a = other.add_input("a");
        let b = other.add_input("b");
        let g1 = other.add_cell(CellKind::Nor2, "u1", &[a, b]).unwrap();
        let ff = other.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = other.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        other.add_output("y", g2);
        other.add_output("q", ff);
        assert_ne!(canonical_hash(&base), canonical_hash(&other));

        // Swapped pin connections (ordered pins are structure).
        let mut swapped = Netlist::new("demo");
        let a = swapped.add_input("a");
        let b = swapped.add_input("b");
        let g1 = swapped.add_cell(CellKind::Nand2, "u1", &[b, a]).unwrap();
        let ff = swapped.add_cell(CellKind::Dff, "r0", &[g1]).unwrap();
        let g2 = swapped.add_cell(CellKind::Xor2, "u2", &[ff, a]).unwrap();
        swapped.add_output("y", g2);
        swapped.add_output("q", ff);
        assert_ne!(canonical_hash(&base), canonical_hash(&swapped));
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let nl = sample();
        assert_eq!(canonical_hash(&nl), canonical_hash(&nl));
    }
}
