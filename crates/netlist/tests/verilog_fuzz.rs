//! No-panic fuzzing of the structural-Verilog frontend: `parse_verilog`
//! over thousands of seeded mutations of valid netlists must either parse
//! or return a *typed* `NetlistError::Verilog(ParseError)` — never panic,
//! never slice out of bounds, never report an untyped failure. Sources are
//! the committed ITC'99-style benchmark fixture plus writer-generated
//! netlists, so both hand-written and machine-written shapes are covered.

use moss_netlist::{
    canonical_hash, parse_verilog, parse_verilog_design, write_verilog, CellKind, Netlist,
    NetlistError, NodeKind,
};
use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};

const B01: &str = include_str!("fixtures/b01_net.v");

fn sample_netlists() -> Vec<Netlist> {
    let mut combinational = Netlist::new("comb");
    let a = combinational.add_input("a");
    let b = combinational.add_input("b");
    let n1 = combinational
        .add_cell(CellKind::Nand2, "u1", &[a, b])
        .unwrap();
    let n2 = combinational
        .add_cell(CellKind::Xor2, "u2", &[n1, a])
        .unwrap();
    let n3 = combinational.add_cell(CellKind::Inv, "u3", &[n2]).unwrap();
    combinational.add_output("y", n3);

    let mut sequential = Netlist::new("seq");
    let d = sequential.add_input("d");
    let en = sequential.add_input("en");
    let g = sequential.add_cell(CellKind::And2, "u1", &[d, en]).unwrap();
    let ff = sequential.add_cell(CellKind::Dff, "r0", &[g]).unwrap();
    let inv = sequential.add_cell(CellKind::Inv, "u2", &[ff]).unwrap();
    let fb = sequential.add_cell(CellKind::Dff, "r1", &[inv]).unwrap();
    let x = sequential
        .add_cell(CellKind::Xor2, "u3", &[ff, fb])
        .unwrap();
    sequential.add_output("q", x);

    vec![combinational, sequential]
}

/// One seeded mutation of `src`: truncation, byte flip, byte deletion, or
/// byte insertion — the corruption classes a half-written or bit-rotted
/// netlist file exhibits.
fn mutate(src: &str, rng: &mut StdRng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    match rng.gen_range(0..4u32) {
        0 => {
            let cut = rng.gen_range(0..=bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
        2 => {
            if !bytes.is_empty() {
                let i = rng.gen_range(0..bytes.len());
                bytes.remove(i);
            }
        }
        _ => {
            let i = rng.gen_range(0..=bytes.len());
            // Bias toward structurally interesting bytes.
            let choices = b"();.,= \\'[\xc3\xa9";
            let c = choices[rng.gen_range(0..choices.len())];
            bytes.insert(i, c);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn parser_never_panics_and_errors_stay_typed() {
    let mut sources: Vec<String> = sample_netlists().iter().map(write_verilog).collect();
    sources.push(B01.to_owned());
    let mut rng = StdRng::seed_from_u64(0xf722);
    let mut parsed_ok = 0usize;
    for round in 0..10_000usize {
        let mut src = sources[round % sources.len()].clone();
        // Stack 1–3 mutations so later rounds stray further from valid.
        for _ in 0..rng.gen_range(1..=3u32) {
            src = mutate(&src, &mut rng);
        }
        match parse_verilog(&src) {
            Ok(_) => parsed_ok += 1,
            Err(NetlistError::Verilog(e)) => {
                // Every rejection is positioned: 1-based line and column.
                assert!(e.line >= 1 && e.column >= 1, "unpositioned error: {e}");
            }
            Err(other) => panic!("untyped parse failure: {other}"),
        }
    }
    // Some mutations are benign (whitespace, comment edits); most must be
    // rejected. Either way, reaching here means no panic in 10k rounds.
    assert!(
        parsed_ok < 10_000,
        "every mutation parsing would mean the fuzz is inert"
    );
}

#[test]
fn truncation_is_an_error_not_a_misparse() {
    // The old parser's regression: an instance whose closing `)` is
    // missing used to be sliced to end-of-statement and mis-parsed; now it
    // is an expected-vs-found syntax error.
    let src = "module m (input a, output y);\n\
               wire w;\n\
               INV_X1 u1 (.A(a), .Y(w);\n\
               assign y = w;\n\
               endmodule\n";
    let err = parse_verilog(src).unwrap_err();
    let NetlistError::Verilog(e) = err else {
        panic!("expected a typed parse error");
    };
    assert_eq!(e.line, 3);

    // A stray `)` ahead of the port list must not invert any slice.
    assert!(parse_verilog("module m )q( input a ); endmodule").is_err());

    // A pin connection missing its closing paren is rejected, multibyte
    // content included.
    assert!(parse_verilog(
        "module m (input a, output y); INV_X1 u1 (.A(a), .Y(né); assign y = né; endmodule"
    )
    .is_err());

    // Every prefix of the fixture is handled without panicking (the
    // sharpest truncation sweep: all 0..len cut points, char-aligned).
    for cut in (0..B01.len()).filter(|&i| B01.is_char_boundary(i)) {
        let _ = parse_verilog(&B01[..cut]);
    }
}

/// FNV-1a accumulator for the parity digest below.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.num(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds everything `parse_verilog_design` reports for `src`: on
    /// success the canonical hash, the node sequence (kinds, names,
    /// ordered fanins and fanouts) and the DFF metadata; on failure the
    /// error text and position.
    fn outcome(&mut self, src: &str) {
        match parse_verilog_design(src) {
            Ok(design) => {
                let nl = &design.netlist;
                self.text("ok");
                self.num(canonical_hash(nl));
                self.text(nl.name());
                for id in nl.node_ids() {
                    match nl.kind(id) {
                        NodeKind::PrimaryInput => self.text("i"),
                        NodeKind::PrimaryOutput => self.text("o"),
                        NodeKind::Cell(kind) => self.text(kind.lib_name()),
                    }
                    self.text(nl.node(id).name());
                    for &f in nl.fanins(id) {
                        self.num(f.index() as u64);
                    }
                    self.text("|");
                    for &f in nl.fanouts(id) {
                        self.num(f.index() as u64);
                    }
                }
                self.num(design.dffs.len() as u64);
                for dff in &design.dffs {
                    self.num(dff.node.index() as u64);
                    match &dff.clock {
                        Some(clock) => self.text(clock),
                        None => self.text("-"),
                    }
                    self.text(&format!("{:?}", dff.reset));
                }
            }
            Err(NetlistError::Verilog(e)) => {
                self.text("err");
                self.text(&e.to_string());
                self.num(u64::from(e.line));
                self.num(u64::from(e.column));
            }
            Err(other) => {
                self.text("other");
                self.text(&other.to_string());
            }
        }
    }
}

/// Hand-written inputs aimed at the corners of error precedence, name
/// handling and elaboration order.
const CORNER_CASES: &[&str] = &[
    "",
    "module",
    "module m",
    "module m (",
    "module m ()",
    "module m ();",
    "module m (); endmodule",
    "module m (); endmodule garbage",
    "module m (); endmodule module n (); endmodule",
    "module m (input a, output y); assign y = a; endmodule",
    "module m (input a, output y); assign y = a; endmodule  \n\n",
    "module m (input a, output y);\n  INV_X1 u1 (.A(a), .Y(y));\n  ]\nendmodule",
    "module m (input a, output y);\n  INV_X1 u1 (.A(a) .Y(y));\n  # \nendmodule",
    "module m (input a, output y); 2'b01 endmodule",
    "module m (input a, output y); /* open",
    "module m (input a, output y); \\ ",
    "module m (input a, output y); é",
    "module m (input a, output a); assign a = a; endmodule",
    "module m (a, y); input a; input a; output y; assign y = a; endmodule",
    "module m (a, y); input a; output y; wire a; assign y = a; endmodule",
    "module m (a, y); input a; output y; input w; assign y = a; endmodule",
    "module m (a, y); wire w; input w; input a; output y; assign y = a; endmodule",
    "module m (a, y); input a; endmodule",
    "module m (input a, output y); endmodule",
    "module m (input a, output y, output z); assign y = a; endmodule",
    "module m (input a, output y); wire n; FOO u1 (.A(a), .Y(n)); BAR u2 (.A(a)); endmodule",
    "module m (input a, output y); INV_X1 a (.A(a), .Y(y)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .Y(y)); INV_X1 u (.A(a), .Y(y)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .Q(y)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .A(a), .Y(y)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .CK(a), .Y(y)); endmodule",
    "module m (input a, output y); NAND2_X1 u (.B(a), .Y(y)); endmodule",
    "module m (input a, output y); NAND2_X1 u (.A(a), .B(a)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .Y(1'b0)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .Y(ghost)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(ghost), .Y(y)); endmodule",
    "module m (input a, output y); INV_X1 u (.A(v), .Y(y)); INV_X1 v (.A(a), .Y(y)); endmodule",
    "module m (input a, output y); INV_X1 v (.A(a), .Y(y)); INV_X1 u (.A(v), .Y(y)); endmodule",
    "module m (input a, output y); wire w; INV_X1 u (.A(w), .Y(y)); INV_X1 v (.A(a), .Y(a)); endmodule",
    "module m (input a, output y); wire w; INV_X1 u (.A(w), .Y(y)); endmodule",
    "module m (input a, output y); wire n; assign n = a; endmodule",
    "module m (input a, output y); assign ghost = a; endmodule",
    "module m (input a, output y); assign y = a; assign y = a; endmodule",
    "module m (input a, output y); assign y = ghost; endmodule",
    "module m (input a, output y, output z); assign y = z; assign z = y; endmodule",
    "module m (input a, output x, output y, output z); assign x = y; assign y = z; assign z = y; endmodule",
    "module m (input a, output y, output z); assign y = z; INV_X1 u (.A(a), .Y(z)); endmodule",
    "module m (input a, output y, output z); assign z = 1'b1; INV_X1 u (.A(z), .Y(y)); endmodule",
    "module m (input a, output y, output z); NAND2_X1 u (.A(1'b0), .B(1'b1), .Y(y)); assign z = 1'b0; endmodule",
    "module m (input const0, input const1, output y); wire const0_1; NAND2_X1 u (.A(1'b0), .B(1'b1), .Y(y)); endmodule",
    "module m (input d, input c, input r, output q); DFF_X1 f (.D(d), .CK(c), .RN(r), .SN(r), .Q(q)); endmodule",
    "module m (input d, input c, output q); DFF_X1 f (.D(d), .CK(c), .RN(1'b1), .Q(q)); endmodule",
    "module m (input d, input c, output q); DFF_X1 f (.D(d), .CK(ghost), .Q(q)); endmodule",
    "module m (input d, input c, output q); wire w; DFF_X1 f (.D(d), .SN(w), .Q(q)); endmodule",
    "module m (input d, input c, output q); DFF_X1 f (.D(q), .CK(c), .SN(d), .Q(q)); endmodule",
    "module m (input d, output q); DFF_X1 f (.D(n), .Q(q)); wire n; INV_X1 g (.A(q), .Y(n)); endmodule",
    "module m (input \\a\u{1} , input \\a , output \\y\u{b} );\n  AND2_X1 \\u1! (.A(\\a\u{1} ), .B(\\a ), .Y(\\y\u{b} ));\nendmodule",
    "module m (input \\a , output \\y ); wire \\n ; INV_X1 \\u1 (.A(\\a ), .Y(\\n )); assign \\y = \\n ; endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .Y(y)) endmodule",
    "module m (input a, output y); INV_X1 u (.A(a), .Y(y),); endmodule",
    "module m (input a, output y); INV_X1 u (); endmodule",
    "module m (input a, output y); INV_X1 u ; endmodule",
    "module m (input a, output y); INV_X1 ; endmodule",
    "module m (input a, output y); assign y a; endmodule",
    "module m (input a, output y); assign y = ; endmodule",
    "module m (input a, output y); assign y = a endmodule",
    "module m (input a, output y); wire ; endmodule",
    "module m (input a, output y); wire a, ; endmodule",
    "module m (input a, output y) wire w; endmodule",
    "module m (input a output y); endmodule",
    "module m (input , output y); endmodule",
    "module (input a); endmodule",
    "endmodule",
    "module m (input a, output y);\r\n\tINV_X1 u (.A(a), .Y(y));\r\nendmodule\r\n",
    "module m (input a, output y);\n  // trailing comment without newline",
    "module m (input a, output y);\n  INV_X1 u (.A(a), .Y(y));\nendmodule // done",
];

/// Parity oracle: one digest over everything the frontend reports for
/// the mutation corpus of `parser_never_panics_and_errors_stay_typed`,
/// every prefix of the b01 fixture, writer output for generated netlists
/// (and mutations of it), and hand-written corner cases. The value is
/// pinned: any change to a parsed netlist, its node order, its DFF
/// metadata, or an error's text or position moves it.
#[test]
fn frontend_outcomes_match_the_pinned_digest() {
    let mut d = Digest(0xcbf2_9ce4_8422_2325);

    let mut sources: Vec<String> = sample_netlists().iter().map(write_verilog).collect();
    sources.push(B01.to_owned());
    let mut rng = StdRng::seed_from_u64(0xf722);
    for round in 0..10_000usize {
        let mut src = sources[round % sources.len()].clone();
        for _ in 0..rng.gen_range(1..=3u32) {
            src = mutate(&src, &mut rng);
        }
        d.outcome(&src);
    }

    for cut in (0..=B01.len()).filter(|&i| B01.is_char_boundary(i)) {
        d.outcome(&B01[..cut]);
    }

    let mut generated = Vec::new();
    for seed in [1u64, 7, 23] {
        for cells in [1usize, 50, 400, 2000] {
            generated.push(write_verilog(&moss_datagen::random_netlist(seed, cells)));
        }
    }
    for src in &generated {
        d.outcome(src);
    }
    let mut rng = StdRng::seed_from_u64(0x9a71);
    for round in 0..2_000usize {
        let mut src = generated[round % 8].clone();
        for _ in 0..rng.gen_range(1..=2u32) {
            src = mutate(&src, &mut rng);
        }
        d.outcome(&src);
    }

    for src in CORNER_CASES {
        d.outcome(src);
    }

    assert_eq!(d.0, PINNED_FRONTEND_DIGEST, "digest {:#018x}", d.0);
}

/// Recorded from the frontend that tokenized into owned strings and
/// elaborated through per-instance pin maps; the allocation-free
/// frontend reproduces it.
const PINNED_FRONTEND_DIGEST: u64 = 0x98c8_4480_2c71_8c1a;
