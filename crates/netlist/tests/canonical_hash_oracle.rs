//! `canonical_hash` streams FNV-1a over the canonical lines without
//! building the text; `canonical_form` is the documented definition. These
//! tests hold the two to each other bit for bit, on generated netlists and
//! on names chosen where sorting by `(kind, name)` and sorting whole lines
//! disagree: names that are prefixes of each other, bytes below `0x20`
//! (which sort before the space that separates a name from its fanins),
//! and duplicate cell and output names.

use moss_netlist::{canonical_form, canonical_hash, CellKind, Netlist, NodeId, NodeKind};
use moss_prng::rngs::StdRng;
use moss_prng::{Rng, SeedableRng};

fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_oracle(nl: &Netlist) {
    assert_eq!(
        canonical_hash(nl),
        fnv1a(&canonical_form(nl)),
        "canonical form:\n{}",
        canonical_form(nl).escape_debug()
    );
}

#[test]
fn generated_netlists_hash_their_canonical_form() {
    for seed in 0..12u64 {
        for cells in [1usize, 10, 100, 1000] {
            assert_oracle(&moss_datagen::random_netlist(seed, cells));
        }
    }
    assert_oracle(&Netlist::new("empty"));
}

/// Cells `u1`, `u1!` and `u1\x01` over inputs whose names also nest; two
/// cells and two outputs share a name.
fn adversarial() -> Netlist {
    let mut nl = Netlist::new("adv");
    let a = nl.add_input("a");
    let a1 = nl.add_input("a\u{1}");
    let a_bang = nl.add_input("a!");
    let vt = nl.add_input("\u{b}");
    let u1 = nl.add_cell(CellKind::Inv, "u1", &[a]).unwrap();
    let u1_bang = nl.add_cell(CellKind::Inv, "u1!", &[a1]).unwrap();
    let u1_soh = nl.add_cell(CellKind::Inv, "u1\u{1}", &[a_bang]).unwrap();
    let u1_vt = nl.add_cell(CellKind::Inv, "u1\u{b}", &[vt]).unwrap();
    let dup_a = nl.add_cell(CellKind::Nand2, "dup", &[u1, u1_bang]).unwrap();
    let dup_b = nl
        .add_cell(CellKind::Nand2, "dup", &[u1_soh, u1_vt])
        .unwrap();
    nl.add_cell(CellKind::Tie0, "t", &[]).unwrap();
    nl.add_cell(CellKind::Tie0, "t\u{1}", &[]).unwrap();
    nl.add_output("y", dup_a);
    nl.add_output("y", dup_b);
    nl.add_output("y\u{1}", u1);
    nl.add_output("y!", u1_vt);
    nl
}

#[test]
fn adversarial_names_hash_their_canonical_form() {
    let nl = adversarial();
    // The whole-line order puts `u1\x01` (its next byte 0x01) before `u1`
    // (its next byte, the separator 0x20), though `u1` < `u1\x01` as names.
    let form = canonical_form(&nl);
    let soh = form.find("c INV_X1 u1\u{1} ").unwrap();
    let plain = form.find("c INV_X1 u1 ").unwrap();
    assert!(soh < plain, "{}", form.escape_debug());
    assert_oracle(&nl);

    // Declaration order does not matter: rebuild with the fanin-free
    // nodes (inputs and tie cells, `t\x01` before `t`) declared in reverse.
    let mut reversed = Netlist::new("adv_rev");
    let mut map = vec![NodeId::new(0); nl.node_count()];
    let order: Vec<NodeId> = nl.node_ids().collect();
    for &id in order.iter().rev() {
        if nl.fanins(id).is_empty() {
            map[id.index()] = match nl.kind(id) {
                NodeKind::PrimaryInput => reversed.add_input(nl.node(id).name()),
                NodeKind::Cell(k) => reversed.add_cell(k, nl.node(id).name(), &[]).unwrap(),
                NodeKind::PrimaryOutput => unreachable!(),
            };
        }
    }
    for &id in &order {
        if nl.fanins(id).is_empty() {
            continue;
        }
        let fanins: Vec<NodeId> = nl.fanins(id).iter().map(|f| map[f.index()]).collect();
        map[id.index()] = match nl.kind(id) {
            NodeKind::Cell(k) => reversed.add_cell(k, nl.node(id).name(), &fanins).unwrap(),
            _ => reversed.add_output(nl.node(id).name(), fanins[0]),
        };
    }
    assert_eq!(canonical_form(&reversed), form);
    assert_eq!(canonical_hash(&reversed), canonical_hash(&nl));
}

/// Random netlists over a tiny name alphabet with control bytes, spaces
/// and `!`, so names collide, nest and straddle the separator byte.
#[test]
fn random_names_over_a_hostile_alphabet_hash_their_canonical_form() {
    const ALPHABET: &[char] = &['u', '1', '!', ' ', '\u{1}', '\u{b}', '\u{1f}', 'é'];
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let name = |rng: &mut StdRng| -> String {
        (0..rng.gen_range(0..4usize))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
            .collect()
    };
    let kinds: Vec<CellKind> = CellKind::ALL
        .into_iter()
        .filter(|k| !k.is_sequential())
        .collect();
    for _ in 0..300 {
        let mut nl = Netlist::new("hostile");
        let mut nodes: Vec<NodeId> = (0..rng.gen_range(1..5usize))
            .map(|_| nl.add_input(name(&mut rng)))
            .collect();
        for _ in 0..rng.gen_range(0..24usize) {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let fanins: Vec<NodeId> = (0..kind.input_count())
                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                .collect();
            nodes.push(nl.add_cell(kind, name(&mut rng), &fanins).unwrap());
        }
        for _ in 0..rng.gen_range(0..5usize) {
            let src = nodes[rng.gen_range(0..nodes.len())];
            nl.add_output(name(&mut rng), src);
        }
        assert_oracle(&nl);
    }
}
