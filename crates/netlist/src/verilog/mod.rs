//! Structural (gate-level) Verilog export and import — the interchange
//! format a Design-Compiler-style flow writes and downstream signoff tools
//! read. Round-tripping through this format is property-tested against the
//! simulator.
//!
//! The frontend is a real tokenizer + recursive-descent parser (see
//! [`token`], [`parser`]) followed by an elaborator that enforces netlist
//! semantics: every net declared, at most one driver per net, every pin
//! connected exactly once. Failures are typed [`ParseError`]s carrying the
//! 1-based line/column and expected-vs-found.
//!
//! Accepted surface (DESIGN.md §14 has the full grammar):
//!
//! - `//` and `/* */` comments;
//! - ANSI (`module m (input a, output y);`) and non-ANSI
//!   (`module m (a, y); input a; output y;`) port declarations;
//! - multi-name declarations `wire n1, n2, n3;`;
//! - escaped identifiers `\q[0] ` (how synthesized bus bits round-trip);
//! - constant pin connections and assigns with `1'b0` / `1'b1`, elaborated
//!   to `TIEL_X1`/`TIEH_X1` cells;
//! - optional `.CK`/`.RN`/`.SN` control pins on `DFF_X1` instances,
//!   surfaced as [`ParsedDff`] metadata rather than graph edges.

mod error;
mod parser;
mod token;

pub use error::{ParseError, ParseErrorKind};

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

use crate::cell::CellKind;
use crate::error::NetlistError;
use crate::graph::{Netlist, NodeId, NodeKind};

use parser::{parse_source, Ast, Dir, Item, Name, NetRef};

/// Pin names per cell kind, in the same order as the netlist's fanins.
fn pin_names(kind: CellKind) -> &'static [&'static str] {
    if kind.is_sequential() {
        return &["D"];
    }
    match kind.input_count() {
        0 => &[],
        1 => &["A"],
        2 => &["A", "B"],
        _ if kind == CellKind::Mux2 => &["A", "B", "S"],
        _ => &["A", "B", "C"],
    }
}

fn output_pin(kind: CellKind) -> &'static str {
    if kind.is_sequential() {
        "Q"
    } else {
        "Y"
    }
}

/// Optional control pins accepted (and recorded, not graphed) on DFFs.
const DFF_CONTROL_PINS: [&str; 3] = ["CK", "RN", "SN"];

/// An instance's pin slots: its input pins in fanin order (at most three),
/// then the output pin, then the three DFF control pins.
const OUT_SLOT: usize = 3;
const CONTROL_SLOT: usize = 4;
const SLOTS: usize = CONTROL_SLOT + DFF_CONTROL_PINS.len();

/// The slot of pin `pin` on a `kind` cell, or `None` if it has no such pin.
fn pin_slot(kind: CellKind, pin: &str) -> Option<usize> {
    if let Some(i) = pin_names(kind).iter().position(|&p| p == pin) {
        return Some(i);
    }
    if pin == output_pin(kind) {
        return Some(OUT_SLOT);
    }
    if !kind.is_sequential() {
        return None;
    }
    DFF_CONTROL_PINS
        .iter()
        .position(|&p| p == pin)
        .map(|i| CONTROL_SLOT + i)
}

/// How a parsed DFF initializes, derived from its reset-style control pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DffReset {
    /// No `RN`/`SN` pin: the flop powers up at 0 by convention.
    Implicit,
    /// An active-low reset pin (`.RN(...)`): clears to 0.
    ActiveLowReset,
    /// An active-low set pin (`.SN(...)`): presets to 1.
    ActiveLowSet,
}

impl DffReset {
    /// The register value this reset style establishes.
    pub fn initial_value(self) -> bool {
        matches!(self, DffReset::ActiveLowSet)
    }
}

/// Sequential metadata recovered from one `DFF_X1` instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedDff {
    /// The DFF's node in the parsed netlist.
    pub node: NodeId,
    /// The net connected to `.CK(...)`, when present.
    pub clock: Option<String>,
    /// Reset style derived from `.RN`/`.SN`.
    pub reset: DffReset,
}

/// A parsed module: the netlist graph plus the sequential metadata
/// (clock/reset bindings) that the graph itself does not carry.
#[derive(Debug, Clone)]
pub struct VerilogDesign {
    /// The elaborated netlist.
    pub netlist: Netlist,
    /// Per-DFF clock/reset info, in instantiation order.
    pub dffs: Vec<ParsedDff>,
}

/// Parses structural Verilog into a netlist.
///
/// Equivalent to [`parse_verilog_design`] with the sequential metadata
/// dropped.
///
/// # Errors
///
/// Returns [`NetlistError::Verilog`] wrapping a positioned [`ParseError`].
///
/// # Examples
///
/// ```
/// use moss_netlist::parse_verilog;
///
/// let nl = parse_verilog(
///     "module m (input a, output y);
///        wire n; // inverted
///        INV_X1 u1 (.A(a), .Y(n));
///        assign y = n;
///      endmodule",
/// )?;
/// assert_eq!(nl.cell_count(), 1);
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn parse_verilog(src: &str) -> Result<Netlist, NetlistError> {
    parse_verilog_design(src).map(|d| d.netlist)
}

/// Parses structural Verilog, keeping per-DFF clock/reset metadata.
///
/// # Errors
///
/// Returns [`NetlistError::Verilog`] wrapping a positioned [`ParseError`].
pub fn parse_verilog_design(src: &str) -> Result<VerilogDesign, NetlistError> {
    let ast = parse_source(src)?;
    Elaborator::new(&ast).run()
}

/// What currently drives a net.
#[derive(Debug, Clone, Copy)]
enum Driver<'a> {
    /// Nothing yet.
    None,
    /// A netlist node: a primary input, or a cell's output pin.
    Node(NodeId),
    /// The right-hand side of an `assign` (resolved lazily, with cycle
    /// detection, because assigns may chain through output ports).
    Assign(NetRef<'a>),
}

#[derive(Debug)]
struct Net<'a> {
    driver: Driver<'a>,
    is_output_port: bool,
}

impl Net<'_> {
    fn undriven() -> Self {
        Net {
            driver: Driver::None,
            is_output_port: false,
        }
    }
}

/// An instance awaiting pin connection: its slots index [`Ast::pins`].
struct CellInst {
    node: NodeId,
    kind: CellKind,
    pins: [Option<usize>; SLOTS],
}

/// Elaboration state. Every declared name is interned once to a dense id
/// (its index in `nets`); nets and drivers are then resolved by that id.
/// Verilog modules have a single declaration namespace, so ports, wires
/// and instance names share the ids; an instance name is not a net and
/// holds `None`. Ports are interned first, so a port's id is its
/// port-list index.
struct Elaborator<'s, 'a> {
    ast: &'s Ast<'a>,
    /// Keyed by request-controlled names: keeps the std randomly keyed
    /// hasher.
    ids: HashMap<&'a str, usize>,
    nets: Vec<Option<Net<'a>>>,
    netlist: Netlist,
    /// The shared `TIEL_X1` / `TIEH_X1` cells, once materialized.
    ties: [Option<NodeId>; 2],
    /// Assign-chain cycle detection: `seen[id] == stamp` marks a net
    /// already followed by the current [`Elaborator::resolve_net`] call.
    seen: Vec<usize>,
    stamp: usize,
}

impl<'s, 'a> Elaborator<'s, 'a> {
    fn new(ast: &'s Ast<'a>) -> Self {
        let capacity = ast.ports.len() + ast.names.len() + ast.items.len();
        Elaborator {
            ast,
            ids: HashMap::with_capacity(capacity),
            nets: Vec::with_capacity(capacity),
            netlist: Netlist::new(ast.name),
            ties: [None; 2],
            seen: Vec::new(),
            stamp: 0,
        }
    }

    fn error(&self, at: usize, kind: ParseErrorKind) -> ParseError {
        self.ast.error(at, kind)
    }

    /// Interns a newly declared name.
    fn declare(&mut self, name: Name<'a>, net: Option<Net<'a>>) -> Result<usize, ParseError> {
        match self.ids.entry(name.text) {
            Entry::Occupied(_) => Err(self.ast.error(
                name.at,
                ParseErrorKind::Redeclared {
                    name: name.text.to_owned(),
                },
            )),
            Entry::Vacant(slot) => {
                let id = self.nets.len();
                slot.insert(id);
                self.nets.push(net);
                Ok(id)
            }
        }
    }

    /// The id of net `text`, if it names a declared port or wire.
    fn net_id(&self, text: &str) -> Option<usize> {
        let id = *self.ids.get(text)?;
        self.nets[id].is_some().then_some(id)
    }

    fn net(&self, id: usize) -> &Net<'a> {
        self.nets[id].as_ref().expect("net ids name nets")
    }

    fn net_mut(&mut self, id: usize) -> &mut Net<'a> {
        self.nets[id].as_mut().expect("net ids name nets")
    }

    /// The id of the net `name` reads or drives, or an `UndeclaredNet`
    /// error at `name`.
    fn declared_net(&self, name: Name<'_>) -> Result<usize, ParseError> {
        self.net_id(name.text).ok_or_else(|| {
            self.error(
                name.at,
                ParseErrorKind::UndeclaredNet {
                    net: name.text.to_owned(),
                },
            )
        })
    }

    /// Materializes the shared `TIEL_X1`/`TIEH_X1` cell for a constant,
    /// named `const0`/`const1` (suffixed `_1`, `_2`, ... past declared
    /// names).
    fn tie(&mut self, value: bool) -> NodeId {
        let slot = usize::from(value);
        if let Some(id) = self.ties[slot] {
            return id;
        }
        let base = if value { "const1" } else { "const0" };
        let mut name = base.to_owned();
        let mut k = 1u32;
        while self.ids.contains_key(name.as_str()) {
            name = format!("{base}_{k}");
            k += 1;
        }
        let kind = if value {
            CellKind::Tie1
        } else {
            CellKind::Tie0
        };
        let id = self
            .netlist
            .add_cell(kind, name, &[])
            .expect("tie cells have no input pins");
        self.ties[slot] = Some(id);
        id
    }

    /// Resolves the node driving net `read`, chasing assign chains.
    fn resolve_net(&mut self, read: Name<'a>) -> Result<NodeId, ParseError> {
        self.stamp += 1;
        let mut current = read.text;
        loop {
            let Some(id) = self.net_id(current) else {
                return Err(self.error(
                    read.at,
                    ParseErrorKind::UndeclaredNet {
                        net: current.to_owned(),
                    },
                ));
            };
            match self.net(id).driver {
                Driver::Node(node) => return Ok(node),
                Driver::Assign(NetRef::Const { value, .. }) => return Ok(self.tie(value)),
                Driver::Assign(NetRef::Net(next)) => {
                    if self.seen[id] == self.stamp {
                        return Err(self.error(
                            read.at,
                            ParseErrorKind::InvalidConnection {
                                message: format!("assign cycle through net '{current}'"),
                            },
                        ));
                    }
                    self.seen[id] = self.stamp;
                    current = next.text;
                }
                Driver::None => {
                    return Err(self.error(
                        read.at,
                        ParseErrorKind::UndrivenNet {
                            net: current.to_owned(),
                        },
                    ));
                }
            }
        }
    }

    fn resolve_ref(&mut self, r: NetRef<'a>) -> Result<NodeId, ParseError> {
        match r {
            NetRef::Const { value, .. } => Ok(self.tie(value)),
            NetRef::Net(n) => self.resolve_net(n),
        }
    }

    /// Interns ports and wires and settles every port's direction.
    fn declarations(&mut self) -> Result<Vec<Option<Dir>>, ParseError> {
        let ast = self.ast;
        for p in &ast.ports {
            self.declare(p.name, Some(Net::undriven()))?;
        }
        let mut port_dirs: Vec<Option<Dir>> = ast.ports.iter().map(|p| p.dir).collect();
        for item in &ast.items {
            let Item::Decl { dir, names } = item else {
                continue;
            };
            for &n in &ast.names[names.clone()] {
                if *dir == Dir::Wire {
                    self.declare(n, Some(Net::undriven()))?;
                    continue;
                }
                // Ports hold the first ids, in port order.
                let port = self
                    .ids
                    .get(n.text)
                    .copied()
                    .filter(|&i| i < port_dirs.len());
                match port {
                    Some(i) if port_dirs[i].is_none() => port_dirs[i] = Some(*dir),
                    _ => {
                        return Err(self.error(
                            n.at,
                            ParseErrorKind::PortDirection {
                                port: n.text.to_owned(),
                            },
                        ))
                    }
                }
            }
        }
        if let Some(p) = ast.ports.iter().zip(&port_dirs).find(|(_, d)| d.is_none()) {
            return Err(self.error(
                p.0.name.at,
                ParseErrorKind::PortDirection {
                    port: p.0.name.text.to_owned(),
                },
            ));
        }
        Ok(port_dirs)
    }

    /// Checks one instance's pins and registers its output as the driver
    /// of the connected net.
    fn instance(
        &mut self,
        cell: Name<'a>,
        name: Name<'a>,
        pins: Range<usize>,
    ) -> Result<CellInst, ParseError> {
        let ast = self.ast;
        let Some(kind) = CellKind::ALL
            .into_iter()
            .find(|k| k.lib_name() == cell.text)
        else {
            return Err(self.error(
                cell.at,
                ParseErrorKind::UnknownCell {
                    cell: cell.text.to_owned(),
                },
            ));
        };
        self.declare(name, None)?;
        let mut slots = [None; SLOTS];
        for (i, conn) in ast.pins[pins.clone()].iter().enumerate() {
            let Some(slot) = pin_slot(kind, conn.pin.text) else {
                return Err(self.error(
                    conn.pin.at,
                    ParseErrorKind::UnknownPin {
                        cell: kind.lib_name().to_owned(),
                        pin: conn.pin.text.to_owned(),
                    },
                ));
            };
            if slots[slot].replace(pins.start + i).is_some() {
                return Err(self.error(
                    conn.pin.at,
                    ParseErrorKind::DuplicatePin {
                        pin: conn.pin.text.to_owned(),
                    },
                ));
            }
        }
        let inputs = pin_names(kind);
        let mut required = (0..inputs.len()).chain([OUT_SLOT]);
        if let Some(missing) = required.find(|&s| slots[s].is_none()) {
            let pin = inputs.get(missing).copied().unwrap_or(output_pin(kind));
            return Err(self.error(
                name.at,
                ParseErrorKind::MissingPin {
                    cell: kind.lib_name().to_owned(),
                    pin: pin.to_owned(),
                },
            ));
        }
        if slots[CONTROL_SLOT + 1].is_some() && slots[CONTROL_SLOT + 2].is_some() {
            return Err(self.error(
                name.at,
                ParseErrorKind::InvalidConnection {
                    message: format!(
                        "instance '{}' connects both RN and SN \
                         (one reset style per flop)",
                        name.text
                    ),
                },
            ));
        }
        for (cp, slot) in DFF_CONTROL_PINS.iter().zip(&slots[CONTROL_SLOT..]) {
            if let Some(NetRef::Const { at, .. }) = slot.map(|i| ast.pins[i].net) {
                return Err(self.error(
                    at,
                    ParseErrorKind::InvalidConnection {
                        message: format!("constant on control pin '{cp}'"),
                    },
                ));
            }
        }
        let node = self.netlist.add_cell_unconnected(kind, name.text);
        let out = slots[OUT_SLOT].expect("required pins checked");
        match ast.pins[out].net {
            NetRef::Const { at, .. } => Err(self.error(
                at,
                ParseErrorKind::InvalidConnection {
                    message: format!("constant on output pin '{}'", output_pin(kind)),
                },
            )),
            NetRef::Net(n) => {
                let id = self.declared_net(n)?;
                let net = self.net_mut(id);
                if !matches!(net.driver, Driver::None) {
                    return Err(multiple_drivers(ast, n));
                }
                net.driver = Driver::Node(node);
                Ok(CellInst {
                    node,
                    kind,
                    pins: slots,
                })
            }
        }
    }

    fn run(mut self) -> Result<VerilogDesign, NetlistError> {
        let ast = self.ast;
        let port_dirs = self.declarations()?;

        // --- Primary inputs, in port order ---------------------------------
        for (id, (p, d)) in ast.ports.iter().zip(&port_dirs).enumerate() {
            let driver = match d.expect("directions checked") {
                Dir::Input => Driver::Node(self.netlist.add_input(p.name.text)),
                _ => Driver::None,
            };
            let net = self.net_mut(id);
            net.driver = driver;
            net.is_output_port = *d == Some(Dir::Output);
        }

        // --- Assigns and instances, in source order ------------------------
        let mut cells: Vec<CellInst> = Vec::new();
        for item in &ast.items {
            match item {
                Item::Decl { .. } => {}
                Item::Assign { lhs, rhs } => {
                    let id = self.declared_net(*lhs)?;
                    let net = self.net_mut(id);
                    if !net.is_output_port {
                        return Err(self
                            .error(
                                lhs.at,
                                ParseErrorKind::InvalidConnection {
                                    message: format!(
                                        "assign target '{}' is not an output port \
                                         (this frontend only assigns outputs)",
                                        lhs.text
                                    ),
                                },
                            )
                            .into());
                    }
                    if !matches!(net.driver, Driver::None) {
                        return Err(multiple_drivers(ast, *lhs).into());
                    }
                    net.driver = Driver::Assign(*rhs);
                }
                Item::Instance { cell, name, pins } => {
                    cells.push(self.instance(*cell, *name, pins.clone())?);
                }
            }
        }

        // --- Connect pins (second pass: nets may be driven after first use) -
        // Every name is declared by now.
        self.seen = vec![0; self.nets.len()];
        let mut dffs: Vec<ParsedDff> = Vec::new();
        for c in &cells {
            let net_at = |slot: usize| c.pins[slot].map(|i| ast.pins[i].net);
            for slot in 0..pin_names(c.kind).len() {
                let src = self.resolve_ref(net_at(slot).expect("required pins checked"))?;
                self.netlist
                    .connect_pin(c.node, src)
                    .expect("pin arity pre-checked against the cell library");
            }
            if !c.kind.is_sequential() {
                continue;
            }
            // Control nets must exist and be driven, but carry no edges:
            // the netlist graph models the D/Q data path only.
            for slot in CONTROL_SLOT..SLOTS {
                if let Some(r) = net_at(slot) {
                    self.resolve_ref(r)?;
                }
            }
            let clock = match net_at(CONTROL_SLOT) {
                Some(NetRef::Net(n)) => Some(n.text.to_owned()),
                _ => None,
            };
            let reset = if c.pins[CONTROL_SLOT + 1].is_some() {
                DffReset::ActiveLowReset
            } else if c.pins[CONTROL_SLOT + 2].is_some() {
                DffReset::ActiveLowSet
            } else {
                DffReset::Implicit
            };
            dffs.push(ParsedDff {
                node: c.node,
                clock,
                reset,
            });
        }

        // --- Primary outputs, in port order --------------------------------
        for (id, (p, d)) in ast.ports.iter().zip(&port_dirs).enumerate() {
            if *d != Some(Dir::Output) {
                continue;
            }
            if matches!(self.net(id).driver, Driver::None) {
                return Err(self
                    .error(
                        p.name.at,
                        ParseErrorKind::UnassignedOutput {
                            port: p.name.text.to_owned(),
                        },
                    )
                    .into());
            }
            let src = self.resolve_net(p.name)?;
            self.netlist.add_output(p.name.text, src);
        }

        self.netlist.validate()?;
        Ok(VerilogDesign {
            netlist: self.netlist,
            dffs,
        })
    }
}

fn multiple_drivers(ast: &Ast<'_>, net: Name<'_>) -> ParseError {
    ast.error(
        net.at,
        ParseErrorKind::MultipleDrivers {
            net: net.text.to_owned(),
        },
    )
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Whether a name can be written at all (possibly escaped).
fn printable(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| !c.is_whitespace() && !c.is_control())
}

/// Last-resort rewrite for names Verilog cannot express even escaped.
fn sanitize(name: &str) -> String {
    let s: String = name
        .chars()
        .map(|c| {
            if c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect();
    if s.is_empty() {
        "n".to_owned()
    } else {
        s
    }
}

/// Claims `base` in `used`, suffixing `_1`, `_2`, ... on collision.
fn unique(base: String, used: &mut HashSet<String>) -> String {
    if used.insert(base.clone()) {
        return base;
    }
    let mut k = 1u32;
    loop {
        let cand = format!("{base}_{k}");
        if used.insert(cand.clone()) {
            return cand;
        }
        k += 1;
    }
}

/// Renders a name as a bare identifier when possible, escaped otherwise.
/// Escaped identifiers include their terminating space.
fn emit_name(name: &str) -> String {
    if token::is_simple_ident(name) {
        name.to_owned()
    } else {
        format!("\\{name} ")
    }
}

/// Renders the netlist as structural Verilog.
///
/// Net names are uniquified against the module's whole namespace, so a
/// primary input named `n_u1` cannot short against cell `u1`'s derived
/// output wire, and non-simple names (`q[0]`, `a.b`) are written as escaped
/// identifiers rather than lossily mangled — [`parse_verilog`] recovers the
/// original node names, preserving [`crate::canonical_hash`].
///
/// # Examples
///
/// ```
/// use moss_netlist::{CellKind, Netlist, write_verilog};
///
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_cell(CellKind::Inv, "u1", &[a])?;
/// nl.add_output("y", g);
/// let v = write_verilog(&nl);
/// assert!(v.contains("INV_X1 u1 (.A(a), .Y(n_u1));"));
/// # Ok::<(), moss_netlist::NetlistError>(())
/// ```
pub fn write_verilog(netlist: &Netlist) -> String {
    let mut used: HashSet<String> = HashSet::new();
    // Ports and instances keep their own names (uniquified only in the
    // degenerate duplicate-name case Verilog cannot express); derived
    // output wires always yield to them.
    let node_names: Vec<String> = netlist
        .node_ids()
        .map(|id| {
            let n = netlist.node(id).name();
            let base = if printable(n) {
                n.to_owned()
            } else {
                sanitize(n)
            };
            unique(base, &mut used)
        })
        .collect();
    let wire_names: Vec<Option<String>> = netlist
        .node_ids()
        .map(|id| {
            matches!(netlist.kind(id), NodeKind::Cell(_))
                .then(|| unique(format!("n_{}", node_names[id.index()]), &mut used))
        })
        .collect();
    let net_of = |id: NodeId| -> String {
        match netlist.kind(id) {
            NodeKind::Cell(_) => emit_name(
                wire_names[id.index()]
                    .as_deref()
                    .expect("every cell has a derived wire"),
            ),
            _ => emit_name(&node_names[id.index()]),
        }
    };

    let mut out = String::new();
    let ports: Vec<String> = netlist
        .node_ids()
        .filter_map(|id| match netlist.kind(id) {
            NodeKind::PrimaryInput => Some(format!("input {}", net_of(id))),
            NodeKind::PrimaryOutput => Some(format!("output {}", net_of(id))),
            NodeKind::Cell(_) => None,
        })
        .collect();
    out.push_str(&format!(
        "module {} ({});\n",
        emit_name(&sanitize(netlist.name())),
        ports.join(", ")
    ));
    // Wire declarations for every cell output.
    for id in netlist.node_ids() {
        if matches!(netlist.kind(id), NodeKind::Cell(_)) {
            out.push_str(&format!("  wire {};\n", net_of(id)));
        }
    }
    // Instances.
    for id in netlist.node_ids() {
        if let NodeKind::Cell(kind) = netlist.kind(id) {
            let mut pins: Vec<String> = netlist
                .fanins(id)
                .iter()
                .zip(pin_names(kind))
                .map(|(&f, pin)| format!(".{pin}({})", net_of(f)))
                .collect();
            pins.push(format!(".{}({})", output_pin(kind), net_of(id)));
            out.push_str(&format!(
                "  {} {} ({});\n",
                kind.lib_name(),
                emit_name(&node_names[id.index()]),
                pins.join(", ")
            ));
        }
    }
    // Output assigns.
    for id in netlist.primary_outputs() {
        out.push_str(&format!(
            "  assign {} = {};\n",
            net_of(id),
            net_of(netlist.fanins(id)[0])
        ));
    }
    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonical_hash;

    fn perr(src: &str) -> ParseError {
        match parse_verilog(src).unwrap_err() {
            NetlistError::Verilog(e) => e,
            other => panic!("expected a verilog parse error, got {other}"),
        }
    }

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

    #[test]
    fn writes_expected_structure() {
        let v = write_verilog(&sample());
        assert!(v.starts_with("module demo (input a, input b, output y, output q);"));
        assert!(v.contains("NAND2_X1 u1 (.A(a), .B(b), .Y(n_u1));"));
        assert!(v.contains("DFF_X1 r0 (.D(n_u1), .Q(n_r0));"));
        assert!(v.contains("assign y = n_u2;"));
        assert!(v.ends_with("endmodule\n"));
    }

    #[test]
    fn round_trip_is_node_exact_and_hash_equal() {
        let original = sample();
        let parsed = parse_verilog(&write_verilog(&original)).unwrap();
        assert_eq!(parsed.name(), original.name());
        assert_eq!(parsed.cell_count(), original.cell_count());
        assert_eq!(parsed.dff_count(), original.dff_count());
        // No placeholder leak: PI counts match exactly.
        assert_eq!(
            parsed.primary_inputs().len(),
            original.primary_inputs().len()
        );
        assert_eq!(
            parsed.primary_outputs().len(),
            original.primary_outputs().len()
        );
        assert!(parsed.validate().is_ok());
        assert_eq!(canonical_hash(&parsed), canonical_hash(&original));
        let lo = crate::level::Levelization::of(&original).unwrap();
        let lp = crate::level::Levelization::of(&parsed).unwrap();
        assert_eq!(lo.max_level(), lp.max_level());
    }

    #[test]
    fn dff_feedback_round_trips() {
        let mut nl = Netlist::new("fb");
        let en = nl.add_input("en");
        let ff = nl.add_cell(CellKind::Dff, "q", &[en]).unwrap();
        let inv = nl.add_cell(CellKind::Inv, "u", &[ff]).unwrap();
        nl.replace_fanin(ff, 0, inv).unwrap();
        nl.add_output("out", ff);
        let parsed = parse_verilog(&write_verilog(&nl)).unwrap();
        assert_eq!(parsed.dff_count(), 1);
        assert!(crate::level::Levelization::of(&parsed).is_ok());
        assert_eq!(canonical_hash(&parsed), canonical_hash(&nl));
    }

    #[test]
    fn colliding_names_round_trip_without_shorting() {
        // A PI literally named like cell u1's derived wire, plus two PIs the
        // old lossy escape() used to merge.
        let mut nl = Netlist::new("c");
        let p = nl.add_input("n_u1");
        let x = nl.add_input("a.b");
        let y = nl.add_input("a_b");
        let g = nl.add_cell(CellKind::Inv, "u1", &[x]).unwrap();
        let h = nl.add_cell(CellKind::Xor2, "u2", &[g, p]).unwrap();
        let k = nl.add_cell(CellKind::And2, "u3", &[h, y]).unwrap();
        nl.add_output("o", k);
        let text = write_verilog(&nl);
        let parsed = parse_verilog(&text).unwrap();
        assert_eq!(parsed.primary_inputs().len(), 3);
        assert_eq!(parsed.cell_count(), nl.cell_count());
        assert_eq!(canonical_hash(&parsed), canonical_hash(&nl));
        // The XOR must read the PI, not u1's output wire.
        let u2 = parsed.find("u2").unwrap();
        let pi = parsed.find("n_u1").unwrap();
        assert!(parsed.fanins(u2).contains(&pi));
    }

    #[test]
    fn escaped_identifiers_round_trip_bus_bits() {
        let mut nl = Netlist::new("bus");
        let q0 = nl.add_input("q[0]");
        let q1 = nl.add_input("q[1]");
        let g = nl.add_cell(CellKind::Or2, "u_or2_0", &[q0, q1]).unwrap();
        nl.add_output("y[0]", g);
        let text = write_verilog(&nl);
        assert!(text.contains("\\q[0] "), "{text}");
        let parsed = parse_verilog(&text).unwrap();
        assert_eq!(canonical_hash(&parsed), canonical_hash(&nl));
        assert!(parsed.find("q[0]").is_some());
    }

    #[test]
    fn multiple_drivers_is_a_typed_error() {
        let e = perr("module m (input a, output y);\n  wire n;\n  INV_X1 u1 (.A(a), .Y(n));\n  INV_X1 u2 (.A(a), .Y(n));\n  assign y = n;\nendmodule");
        assert!(matches!(
            e.kind,
            ParseErrorKind::MultipleDrivers { ref net } if net == "n"
        ));
        assert_eq!(e.line, 4);
        // An instance output shorting an input port is the same error.
        let e = perr(
            "module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(a));\n  assign y = a;\nendmodule",
        );
        assert!(matches!(
            e.kind,
            ParseErrorKind::MultipleDrivers { ref net } if net == "a"
        ));
        // So is assigning an already-driven output twice.
        let e = perr(
            "module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(y));\n  assign y = a;\nendmodule",
        );
        assert!(matches!(e.kind, ParseErrorKind::MultipleDrivers { .. }));
    }

    #[test]
    fn duplicate_pin_is_a_typed_error() {
        let e = perr(
            "module m (input a, input b, output y);\n  wire n;\n  NAND2_X1 u1 (.A(a), .A(b), .Y(n));\n  assign y = n;\nendmodule",
        );
        assert!(matches!(
            e.kind,
            ParseErrorKind::DuplicatePin { ref pin } if pin == "A"
        ));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn comments_and_nonansi_ports_parse() {
        let nl = parse_verilog(
            "// header comment\n\
             /* block\n   comment */\n\
             module m (a, b, y);\n\
               input a, b;\n\
               output y;\n\
               wire n1, n2;\n\
               AND2_X1 u1 (.A(a), .B(b), .Y(n1)); // inline\n\
               INV_X1 u2 (.A(n1), .Y(n2));\n\
               assign y = n2;\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(nl.primary_inputs().len(), 2);
        assert_eq!(nl.primary_outputs().len(), 1);
        assert_eq!(nl.cell_count(), 2);
    }

    #[test]
    fn constants_elaborate_to_tie_cells() {
        let nl = parse_verilog(
            "module m (input a, output y, output z);\n\
               wire n;\n\
               NAND2_X1 u1 (.A(a), .B(1'b1), .Y(n));\n\
               assign y = n;\n\
               assign z = 1'b0;\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(nl.cell_count(), 3); // u1 + const1 + const0
        let t1 = nl.find("const1").unwrap();
        assert_eq!(nl.kind(t1), NodeKind::Cell(CellKind::Tie1));
        let u1 = nl.find("u1").unwrap();
        assert_eq!(nl.fanins(u1)[1], t1);
        let t0 = nl.find("const0").unwrap();
        assert_eq!(nl.kind(t0), NodeKind::Cell(CellKind::Tie0));
        let z = nl.primary_outputs()[1];
        assert_eq!(nl.fanins(z), [t0]);
        // A netlist with tie cells survives the round trip.
        let again = parse_verilog(&write_verilog(&nl)).unwrap();
        assert_eq!(canonical_hash(&again), canonical_hash(&nl));
    }

    #[test]
    fn dff_control_pins_are_recorded_not_graphed() {
        let d = parse_verilog_design(
            "module m (input d, input clk, input rst, output q);\n\
               DFF_X1 r0 (.D(d), .CK(clk), .RN(rst), .Q(q));\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(d.dffs.len(), 1);
        assert_eq!(d.dffs[0].clock.as_deref(), Some("clk"));
        assert_eq!(d.dffs[0].reset, DffReset::ActiveLowReset);
        assert!(!d.dffs[0].reset.initial_value());
        let ff = d.dffs[0].node;
        // Only the D pin is a graph edge.
        assert_eq!(d.netlist.fanins(ff).len(), 1);
        let clk = d.netlist.find("clk").unwrap();
        assert!(d.netlist.fanouts(clk).is_empty());

        let d = parse_verilog_design(
            "module m (input d, input clk, input set, output q);\n\
               DFF_X1 r0 (.D(d), .CK(clk), .SN(set), .Q(q));\n\
             endmodule",
        )
        .unwrap();
        assert_eq!(d.dffs[0].reset, DffReset::ActiveLowSet);
        assert!(d.dffs[0].reset.initial_value());

        let e = perr(
            "module m (input d, input r, input s, output q);\n\
               DFF_X1 r0 (.D(d), .RN(r), .SN(s), .Q(q));\n\
             endmodule",
        );
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
        let e = perr(
            "module m (input d, output q);\n\
               DFF_X1 r0 (.D(d), .CK(1'b0), .Q(q));\n\
             endmodule",
        );
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
    }

    #[test]
    fn semantic_errors_are_typed_and_positioned() {
        let e = perr("module m (input a, output y);\n  FOO_X1 u (.A(a), .Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UnknownCell { ref cell } if cell == "FOO_X1"));
        assert_eq!((e.line, e.column), (2, 3));

        let e = perr("module m (input a, output y);\n  INV_X1 u (.A(a), .Z(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UnknownPin { ref pin, .. } if pin == "Z"));

        let e = perr("module m (input a, output y);\n  INV_X1 u (.Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::MissingPin { ref pin, .. } if pin == "A"));

        let e = perr("module m (input a, output y);\n  INV_X1 u (.A(ghost), .Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UndeclaredNet { ref net } if net == "ghost"));

        let e =
            perr("module m (input a, output y);\n  wire w;\n  INV_X1 u (.A(w), .Y(y));\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UndrivenNet { ref net } if net == "w"));

        let e = perr("module m (input a, output y);\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::UnassignedOutput { ref port } if port == "y"));

        let e = perr("module m (input a, output y);\n  wire a;\n  assign y = a;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::Redeclared { ref name } if name == "a"));

        let e = perr("module m (a, y);\n  output y;\n  assign y = a;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::PortDirection { ref port } if port == "a"));

        let e = perr("module m (output y, output z);\n  assign y = z;\n  assign z = y;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
        assert!(e.to_string().contains("cycle"), "{e}");

        let e = perr("module m (input a, output y);\n  wire n;\n  assign n = a;\nendmodule");
        assert!(matches!(e.kind, ParseErrorKind::InvalidConnection { .. }));
    }

    #[test]
    fn output_driven_directly_by_an_instance_pin() {
        let nl =
            parse_verilog("module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(y));\nendmodule")
                .unwrap();
        let y = nl.primary_outputs()[0];
        let u1 = nl.find("u1").unwrap();
        assert_eq!(nl.fanins(y), [u1]);
    }

    #[test]
    fn output_port_is_readable_through_its_assign() {
        let nl = parse_verilog(
            "module m (input a, output y, output z);\n\
               wire n;\n\
               INV_X1 u1 (.A(a), .Y(n));\n\
               assign y = n;\n\
               INV_X1 u2 (.A(y), .Y(z));\n\
             endmodule",
        )
        .unwrap();
        let u1 = nl.find("u1").unwrap();
        let u2 = nl.find("u2").unwrap();
        assert_eq!(nl.fanins(u2), [u1]);
    }
}
