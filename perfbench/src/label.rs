//! The `label` job: a seeded corpus — small `CorpusPlan` designs with the
//! 1k–5k-cell suite circuits spread among them — labeled through the
//! public `LabeledCircuit::build`, first cold into a fresh `LabelStore`
//! (synth → sim → STA → power → store write), then warm against the same
//! store (synth → hash → store read). Each measured pass pair uses a fresh
//! store directory under the working directory and removes it after.
//!
//! The traced passes replay `LabeledCircuit::build` from its public parts
//! with spans around each call, and must produce the same label digest.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use moss::{
    canonical_reset_hash, labels_from_record, labels_to_record, LabeledCircuit, Labels,
    SampleOptions,
};
use moss_bench::labels::LabelConfig;
use moss_netlist::{canonical_hash, CellLibrary, NodeKind};
use moss_rtl::Module;
use moss_sim::{CompiledSim, ToggleAccum};
use moss_store::{store_key, LabelStore};
use moss_synth::{synthesize, SynthError};
use moss_timing::TimingReport;

use crate::report::{fold, median, secs, Report, DIGEST_SEED};
use crate::spans::Spans;

/// Small random designs per corpus (about 42 cells each).
const SMALL_DESIGNS: usize = 120;
/// Suite circuits of 1k–5k cells mixed into the corpus.
const LARGE: [&str; 3] = ["signed_mac", "wb_data_mux", "mult_16x32_to_48"];
/// Corpus generations timed per run; `setup_s` takes their median.
const SETUPS: usize = 5;
/// Cold passes per step, each into a fresh store. A cold pass is the
/// longest of the job's samples and the one the machine's slow stretches
/// hit hardest, so each circuit gets two chances at a fast build per step.
const COLD_PASSES: usize = 2;
/// Warm passes after each cold pass, against its store. A warm pass takes a
/// tenth of a cold one.
const WARM_PASSES: usize = 2;

/// Label digests recorded for fixed seeds (`<seed> <hex digest>` lines):
/// a change that speeds up the simulator must leave these untouched.
const RECORDED: &str = include_str!("../label_digests.txt");

fn corpus(seed: u64) -> Vec<Module> {
    let plan = moss_datagen::CorpusPlan::new(crate::mix(seed, 0x1abe1), SMALL_DESIGNS, 64);
    let mut modules: Vec<Module> = plan.shards().flat_map(|s| s.modules()).collect();
    let large: Vec<Module> = moss_datagen::benchmark_suite()
        .into_iter()
        .filter(|m| LARGE.contains(&m.name()))
        .collect();
    let step = modules.len() / large.len() + 1;
    for (k, m) in large.into_iter().enumerate() {
        modules.insert(k * step + step / 2, m);
    }
    modules
}

/// `labelgen`'s settings (4,096 stimulus cycles, 500 MHz), seeded.
fn label_config(seed: u64) -> LabelConfig {
    LabelConfig {
        seed: crate::mix(seed, 0x1abe2),
        ..LabelConfig::default()
    }
}

/// A store directory inside the working directory, unique to this pass.
fn scratch_store(pass: usize) -> std::io::Result<(PathBuf, LabelStore)> {
    let dir = PathBuf::from(".perfbench_work").join(format!("label-{}-{pass}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = LabelStore::open(&dir)?;
    Ok((dir, store))
}

/// One pass over the corpus.
struct Pass {
    /// Wall seconds of each circuit's build, in corpus order.
    secs: Vec<f64>,
    digest: u64,
    hits: usize,
    failed: usize,
}

/// Labels every module with `build` (given its corpus index), timing each
/// build; the digest is taken afterwards, outside the timing.
fn pass(
    modules: &[Module],
    mut build: impl FnMut(usize, &Module) -> Result<LabeledCircuit, SynthError>,
) -> Pass {
    let mut times = Vec::with_capacity(modules.len());
    let results: Vec<_> = modules
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let t = Instant::now();
            let r = build(i, m);
            times.push(secs(t));
            (i, r)
        })
        .collect();
    let failed = results.iter().filter(|(_, r)| r.is_err()).count();
    let labeled: Vec<(usize, LabeledCircuit)> = results
        .into_iter()
        .filter_map(|(i, r)| r.ok().map(|lc| (i, lc)))
        .collect();
    let digest = labeled.iter().fold(DIGEST_SEED, |h, (i, lc)| {
        fold(
            fold(h, *i as u64),
            labels_to_record(&lc.netlist, &lc.labels).digest(),
        )
    });
    Pass {
        secs: times,
        digest,
        hits: labeled.iter().filter(|(_, lc)| lc.cache_hit).count(),
        failed,
    }
}

/// `compute_labels` from its public parts: simulation, STA, power.
fn compute_traced(
    netlist: &moss_netlist::Netlist,
    bindings: &[moss_synth::DffBinding],
    lib: &CellLibrary,
    options: &SampleOptions,
    spans: &mut Spans,
) -> Result<Labels, SynthError> {
    let (toggle, probability) = spans.time("sim", || -> Result<_, SynthError> {
        let mut sim = CompiledSim::new(netlist)?;
        for b in bindings {
            sim.set_state(b.dff, b.reset);
        }
        sim.settle();
        let mut acc = ToggleAccum::new(&sim);
        let mut rng_state = options.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let inputs = netlist.primary_inputs();
        for _ in 0..options.sim_cycles {
            for &pi in &inputs {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                sim.set_input(pi, rng_state & 1 == 1);
            }
            sim.step_count(&mut acc);
        }
        let cycles = options.sim_cycles.max(1) as f64;
        let rate =
            |v: &[u64]| -> Vec<f32> { v.iter().map(|&t| (t as f64 / cycles) as f32).collect() };
        Ok((rate(acc.toggles()), rate(acc.ones())))
    })?;
    let timing = spans.time("sta", || TimingReport::analyze(netlist, lib))?;
    let arrival_ns = timing
        .dff_arrivals()
        .iter()
        .map(|&(d, ps)| (d.index(), (ps / 1000.0) as f32))
        .collect();
    let mut dynamic_nw = vec![0.0f32; netlist.node_count()];
    let mut leakage = 0.0f64;
    for id in netlist.node_ids() {
        if let NodeKind::Cell(kind) = netlist.kind(id) {
            let t = lib.timing(kind);
            dynamic_nw[id.index()] =
                toggle[id.index()] * t.switch_energy_fj as f32 * options.clock_mhz as f32;
            leakage += t.leakage_nw;
        }
    }
    let total_power_nw = dynamic_nw.iter().map(|&d| f64::from(d)).sum::<f64>() + leakage;
    Ok(Labels {
        toggle,
        probability,
        arrival_ns,
        dynamic_nw,
        total_power_nw,
        leakage_nw: leakage,
    })
}

/// `LabeledCircuit::build` from its public parts, with spans.
fn build_traced(
    module: &Module,
    lib: &CellLibrary,
    options: &SampleOptions,
    store: &LabelStore,
    spans: &mut Spans,
    cell_cycles: &mut u64,
) -> Result<LabeledCircuit, SynthError> {
    let synth = spans.time("synth", || synthesize(module, &options.synth))?;
    let (netlist, bindings) = (synth.netlist, synth.dffs);
    let hash = spans.time("hash", || canonical_hash(&netlist));
    let key = store_key(
        hash,
        canonical_reset_hash(&netlist, &bindings),
        options.sim_cycles,
        options.seed,
        options.clock_mhz,
    );
    let record = spans.time("store_read", || store.load(key));
    let cached = record.and_then(|r| labels_from_record(&netlist, &r));
    let cache_hit = cached.is_some();
    let labels = match cached {
        Some(l) => l,
        None => {
            *cell_cycles += netlist.cell_count() as u64 * options.sim_cycles;
            let labels = compute_traced(&netlist, &bindings, lib, options, spans)?;
            let record = labels_to_record(&netlist, &labels);
            // A failed publish only costs a later pass a recompute, as in
            // the program.
            let _ = spans.time("store_write", || store.store(key, &record));
            labels
        }
    };
    Ok(LabeledCircuit {
        netlist,
        bindings,
        labels,
        cache_hit,
        key: Some(key),
    })
}

fn recorded_digest(seed: u64) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let s: u64 = parts.next()?.parse().ok()?;
        let d = u64::from_str_radix(parts.next()?.trim_start_matches("0x"), 16).ok()?;
        (s == seed).then_some(d)
    })
}

/// The job between set-up and report: cold + warm pass pairs, each on a
/// fresh store.
pub struct Job {
    seed: u64,
    modules: Vec<Module>,
    lib: CellLibrary,
    cfg: LabelConfig,
    setup_s: f64,
    spans: Spans,
    cell_cycles: u64,
    warm_lookups: (u64, u64),
    cold: Vec<Pass>,
    warm: Vec<Pass>,
    traced_cold: Vec<Pass>,
    traced_warm: Vec<Pass>,
    stores: Vec<PathBuf>,
    failures: Vec<String>,
}

impl Job {
    /// Set-up: generating the corpus, `SETUPS` times (their median is the
    /// job's set-up time).
    pub fn new(seed: u64) -> Job {
        let mut times = Vec::new();
        let mut modules = Vec::new();
        for _ in 0..SETUPS {
            let t = Instant::now();
            modules = corpus(seed);
            times.push(secs(t));
        }
        Job {
            seed,
            modules,
            lib: CellLibrary::default(),
            cfg: label_config(seed),
            setup_s: median(&mut times),
            spans: Spans::default(),
            cell_cycles: 0,
            warm_lookups: (0, 0),
            cold: Vec::new(),
            warm: Vec::new(),
            traced_cold: Vec::new(),
            traced_warm: Vec::new(),
            stores: Vec::new(),
            failures: Vec::new(),
        }
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// `COLD_PASSES` times: one cold pass into a fresh store, then
    /// `WARM_PASSES` warm passes against it.
    pub fn step(&mut self, traced: bool) {
        for _ in 0..COLD_PASSES {
            self.cycle(traced);
        }
    }

    fn cycle(&mut self, traced: bool) {
        let k = self.cold.len() + self.traced_cold.len();
        let (dir, store) = match scratch_store(k) {
            Ok(s) => s,
            Err(e) => {
                self.failures
                    .push(format!("label: cannot open a store: {e}"));
                return;
            }
        };
        let (modules, lib, cfg) = (&self.modules, &self.lib, &self.cfg);
        if traced {
            let (spans, cell_cycles) = (&mut self.spans, &mut self.cell_cycles);
            let cold = pass(modules, |i, m| {
                build_traced(m, lib, &cfg.options_for(i), &store, spans, cell_cycles)
            });
            let lookups = |st: &LabelStore| {
                let s = st.stats();
                (
                    s.hits.load(Ordering::Relaxed),
                    s.misses.load(Ordering::Relaxed),
                )
            };
            let before = lookups(&store);
            for _ in 0..WARM_PASSES {
                let warm = pass(modules, |i, m| {
                    build_traced(m, lib, &cfg.options_for(i), &store, spans, &mut 0)
                });
                self.traced_warm.push(warm);
            }
            let after = lookups(&store);
            self.warm_lookups.0 += after.0 - before.0;
            self.warm_lookups.1 += after.1 - before.1;
            self.traced_cold.push(cold);
        } else {
            let mut build =
                |i, m: &Module| LabeledCircuit::build(m, lib, &cfg.options_for(i), Some(&store));
            self.cold.push(pass(modules, &mut build));
            for _ in 0..WARM_PASSES {
                self.warm.push(pass(modules, &mut build));
            }
        }
        // Removed at the end of the run, not here: a burst of unlinks
        // would load the filesystem journal under the next cold pass.
        self.stores.push(dir);
    }

    pub fn finish(self, trace: bool, report: &mut Report) {
        for dir in &self.stores {
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_dir(".perfbench_work");
        for f in &self.failures {
            report.check(false, f);
        }
        let n = self.modules.len();
        let Some(reference) = self.cold.first().map(|p| p.digest) else {
            report.check(false, "label: no cold pass ran");
            return;
        };
        report.note(&format!(
            "label digest {reference:016x} (seed {}, {n} circuits)",
            self.seed
        ));
        let cold = self.cold.iter().chain(&self.traced_cold);
        let warm = self.warm.iter().chain(&self.traced_warm);
        for p in cold.clone().chain(warm.clone()) {
            report.count(n as u64, p.failed as u64);
            report.check(p.failed == 0, "label: every circuit labels");
            report.check(
                p.digest == reference,
                "label: cold, warm and traced digests agree",
            );
        }
        report.check(
            cold.clone().all(|p| p.hits == 0) && warm.clone().all(|p| p.hits == n),
            "label: cold passes miss the store and warm passes hit it for every circuit",
        );
        if let Some(d) = recorded_digest(self.seed) {
            report.check(
                d == reference,
                "label: digest equals the one recorded for this seed",
            );
        }
        // Circuits per second with each circuit at its fastest build of the
        // run's passes: the machine's other load comes in stretches of
        // seconds, and a build takes milliseconds, so each circuit's fastest
        // build is one the load missed.
        let rate = |passes: &[Pass]| {
            let fastest = |i: usize| passes.iter().map(|p| p.secs[i]).fold(f64::NAN, f64::min);
            n as f64 / (0..n).map(fastest).sum::<f64>()
        };
        if !trace {
            report.metric(
                "label.cold_circuits_per_s",
                rate(&self.cold),
                "circuits/s",
                self.cold.len(),
            );
            report.metric(
                "label.warm_circuits_per_s",
                rate(&self.warm),
                "circuits/s",
                self.warm.len(),
            );
            return;
        }
        let spans = &self.spans;
        let calls = |name: &str| spans.calls(name) as usize;
        for (metric, span) in [
            ("label.synth_ms", "synth"),
            ("label.sim_ms", "sim"),
            ("label.sta_ms", "sta"),
            ("label.store_write_ms", "store_write"),
            ("label.store_read_ms", "store_read"),
        ] {
            report.metric(metric, spans.mean_ms(span), "ms", calls(span));
        }
        report.metric(
            "label.sim_ns_per_cell_cycle",
            spans.total_ms("sim") * 1e6 / self.cell_cycles.max(1) as f64,
            "ns",
            calls("sim"),
        );
        report.metric(
            "label.hash_us",
            spans.mean_ms("hash") * 1e3,
            "us",
            calls("hash"),
        );
        let (hits, misses) = self.warm_lookups;
        report.metric(
            "label.store_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            (hits + misses) as usize,
        );
        report.metric(
            "label.trace_overhead_pct",
            (rate(&self.cold) / rate(&self.traced_cold) - 1.0) * 100.0,
            "%",
            self.cold.len() + self.traced_cold.len(),
        );
    }
}
