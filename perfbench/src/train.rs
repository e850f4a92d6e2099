//! The `train` job: `MossVariant::Full` at `ExperimentConfig::quick()`
//! model sizes on the eight benchmark-suite circuits. World build, labels
//! and `prepare` are set-up; each measured round trains a fresh copy of
//! the same initial parameters for a fixed number of pretrain epochs, then
//! align epochs, through the public `Trainer`.
//!
//! The traced rounds replay the same loop from `Trainer::pretrain` /
//! `Trainer::align` step by step, with spans around each public call, and
//! must reproduce the untraced loss history bit for bit: that equality is
//! what shows the per-layer numbers describe the same work.

use std::time::Instant;

use moss::{
    AlignEpoch, DynamicWeights, MossConfig, MossModel, MossVariant, Prepared, PretrainEpoch,
    Trainer,
};
use moss_bench::pipeline::{build_samples, build_world, ExperimentConfig, World};
use moss_bench::run::RunManifest;
use moss_llm::{FineTuneConfig, FineTuner, TextEncoder};
use moss_prng::rngs::StdRng;
use moss_prng::seq::SliceRandom;
use moss_prng::SeedableRng;
use moss_tensor::{Adam, Graph, ParamStore, Var};

use crate::report::{best, median, secs, Report};
use crate::spans::Spans;

/// Pretrain epochs per measured round.
const PRETRAIN_EPOCHS: usize = 2;
/// Align epochs per measured round.
const ALIGN_EPOCHS: usize = 2;
/// Untraced set-ups per run; `setup_s` takes their median.
const SETUPS: usize = 5;
/// Shuffle seeds the rounds cycle through; `train.final_loss` is the mean
/// over them, which keeps it from hanging on one shuffle order.
pub const SHUFFLES: usize = 8;
/// Circuits at or above this many cells count as large for the forward
/// split.
const LARGE_CELLS: usize = 1000;

struct Setup {
    world: World,
    model: MossModel,
    init: ParamStore,
    preps: Vec<Prepared>,
    cells: Vec<usize>,
}

/// The experiment binaries' quick world (encoder, labels, initial
/// parameters); the workload seed picks the shuffle orders.
fn config(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick();
    c.train.seed = crate::mix(seed, 0x7a12);
    c.train.pretrain_epochs = PRETRAIN_EPOCHS;
    c.train.align_epochs = ALIGN_EPOCHS;
    c
}

fn model_config(world: &World) -> MossConfig {
    MossConfig {
        d_hidden: world.config.d_hidden,
        iterations: world.config.iterations,
        ..MossConfig::small(world.config.encoder.d_model, MossVariant::Full)
    }
}

/// World build, labels and `prepare`, as `train_variant` does them.
fn setup_untraced(config: ExperimentConfig, report: &mut Report) -> Option<Setup> {
    let world = build_world(config);
    let suite = moss_datagen::benchmark_suite();
    let mut manifest = RunManifest::new("perfbench-train");
    let samples = build_samples(&world, &suite, &mut manifest).ok()?;
    let mut init = world.store.clone();
    let model = MossModel::new(model_config(&world), &mut init, config.seed ^ 0x90de1);
    let prepared = moss_tensor::par_map(&samples, |_, s| {
        model.prepare(s, &world.encoder, &init, &world.lib, world.config.clock_mhz)
    });
    let failed = prepared.iter().filter(|p| p.is_err()).count() + manifest.skips().len();
    report.count(suite.len() as u64, failed as u64);
    report.check(
        failed == 0,
        "train: every suite circuit labels and prepares",
    );
    let cells = samples.iter().map(|s| s.cell_count()).collect();
    let preps = prepared.into_iter().collect::<Result<Vec<_>, _>>().ok()?;
    Some(Setup {
        world,
        model,
        init,
        preps,
        cells,
    })
}

/// The same set-up with spans around `FineTuner::train_epoch` and
/// `MossModel::prepare` (the world build is replayed from its public
/// parts; prepare runs on the calling thread so each call is timed alone).
fn setup_traced(config: ExperimentConfig, spans: &mut Spans) -> Option<Setup> {
    let mut store = ParamStore::new();
    let encoder = TextEncoder::new(config.encoder, &mut store, config.seed);
    let corpus = moss_datagen::random_corpus(config.seed ^ 0xc0ffee, config.corpus_size);
    let pairs = moss_datagen::finetune_pairs(&corpus);
    let mut tuner = FineTuner::new(
        FineTuneConfig {
            learning_rate: 1e-3,
            ..FineTuneConfig::default()
        },
        config.seed ^ 0xf1e,
    );
    for _ in 0..config.finetune_epochs {
        spans.time("finetune", || {
            tuner.train_epoch(&encoder, &mut store, &pairs)
        });
    }
    let world = World {
        lib: moss_netlist::CellLibrary::default(),
        store,
        encoder,
        config,
    };
    let mut manifest = RunManifest::new("perfbench-train");
    let samples = build_samples(&world, &moss_datagen::benchmark_suite(), &mut manifest).ok()?;
    let mut init = world.store.clone();
    let model = MossModel::new(model_config(&world), &mut init, config.seed ^ 0x90de1);
    let mut preps = Vec::with_capacity(samples.len());
    for s in &samples {
        let p = spans.time("prepare", || {
            model.prepare(s, &world.encoder, &init, &world.lib, world.config.clock_mhz)
        });
        preps.push(p.ok()?);
    }
    let cells = samples.iter().map(|s| s.cell_count()).collect();
    Some(Setup {
        world,
        model,
        init,
        preps,
        cells,
    })
}

/// One round's outcome.
struct Round {
    pretrain: Vec<PretrainEpoch>,
    align: Vec<AlignEpoch>,
    pretrain_s: f64,
    align_s: f64,
    /// Steps skipped for a non-finite loss (counted by the replay only;
    /// `Trainer` keeps its count in the observability layer).
    skipped: u64,
}

fn shuffle_config(config: &ExperimentConfig, k: usize) -> ExperimentConfig {
    let mut c = *config;
    c.train.seed = crate::mix(config.train.seed, k as u64);
    c
}

fn round(s: &Setup, config: &ExperimentConfig) -> Round {
    let mut store = s.init.clone();
    let mut trainer = Trainer::new(config.train);
    let t = Instant::now();
    let pretrain = trainer.pretrain(&s.model, &mut store, &s.preps);
    let pretrain_s = secs(t);
    let t = Instant::now();
    let align = trainer.align(&s.model, &s.world.encoder, &mut store, &s.preps);
    Round {
        pretrain,
        align,
        pretrain_s,
        align_s: secs(t),
        skipped: 0,
    }
}

fn weighted_sum(g: &mut Graph, losses: &[Var], weights: &[f32]) -> Var {
    let mut acc: Option<Var> = None;
    for (&l, &w) in losses.iter().zip(weights) {
        let scaled = g.scale(l, w);
        acc = Some(match acc {
            Some(a) => g.add(a, scaled),
            None => scaled,
        });
    }
    acc.expect("four task losses")
}

fn batch_ranges(len: usize, batch: usize) -> Vec<(usize, usize)> {
    let mut ranges: Vec<(usize, usize)> = (0..len)
        .step_by(batch)
        .map(|s| (s, (s + batch).min(len)))
        .collect();
    if let [.., prev, last] = ranges.as_mut_slice() {
        if last.1 - last.0 < 2 {
            prev.1 = last.1;
            ranges.pop();
        }
    }
    ranges
}

/// Counters the traced rounds keep besides the spans.
#[derive(Default)]
struct Counts {
    tape_ops: u64,
    pool_tasks: u64,
    pretrain_steps: u64,
}

/// `Trainer::pretrain` then `Trainer::align`, replayed with spans.
fn round_traced(s: &Setup, config: &ExperimentConfig, spans: &mut Spans, n: &mut Counts) -> Round {
    let tc = config.train;
    let model = &s.model;
    let mut store = s.init.clone();
    let mut rng = StdRng::seed_from_u64(tc.seed);
    let mut weights = DynamicWeights::new(4);
    let mut opt = Adam::new(tc.learning_rate);
    let mut order: Vec<usize> = (0..s.preps.len()).collect();
    let mut pretrain = Vec::new();
    let mut skipped = 0;
    let t = Instant::now();
    for _ in 0..tc.pretrain_epochs {
        order.shuffle(&mut rng);
        let mut sums = [0.0f64; 5];
        let mut used = 0usize;
        for &i in &order {
            let step = Instant::now();
            let pool0 = moss_tensor::pool::global().stats().tasks_submitted;
            let prep = &s.preps[i];
            let mut g = Graph::new();
            let fwd = if s.cells[i] >= LARGE_CELLS {
                "forward_large"
            } else {
                "forward_small"
            };
            let l = spans.time(fwd, || model.local_losses(&mut g, &store, prep));
            let raw = [l.probability, l.toggle, l.arrival, l.power]
                .map(|v| f64::from(g.value(v).get(0, 0)));
            if raw.iter().any(|v| !v.is_finite()) {
                skipped += 1;
                continue;
            }
            let w = weights.update(&raw);
            let total = weighted_sum(&mut g, &[l.probability, l.toggle, l.arrival, l.power], &w);
            sums[0] += f64::from(g.value(total).get(0, 0));
            for (acc, r) in sums[1..].iter_mut().zip(raw) {
                *acc += r;
            }
            used += 1;
            n.tape_ops += g.len() as u64;
            let grads = spans.time("backward", || g.backward(total));
            spans.time("adam", || opt.step(&mut store, &grads));
            n.pool_tasks += moss_tensor::pool::global().stats().tasks_submitted - pool0;
            n.pretrain_steps += 1;
            spans.add("step", step.elapsed());
        }
        let d = used.max(1) as f64;
        pretrain.push(PretrainEpoch {
            total: sums[0] / d,
            probability: sums[1] / d,
            toggle: sums[2] / d,
            arrival: sums[3] / d,
            power: sums[4] / d,
        });
    }
    let pretrain_s = secs(t);

    let t = Instant::now();
    let frozen: Vec<_> = spans.time("align_frozen", || {
        s.preps
            .iter()
            .map(|p| model.frozen_embeddings(&store, p))
            .collect()
    });
    let mut opt = Adam::new(tc.learning_rate * 2.0);
    let ranges = batch_ranges(s.preps.len(), tc.align_batch.max(2).min(s.preps.len()));
    let mut order: Vec<usize> = (0..s.preps.len()).collect();
    let mut align = Vec::new();
    for _ in 0..tc.align_epochs {
        order.shuffle(&mut rng);
        let mut sums = [0.0f64; 4];
        let mut batches = 0usize;
        for &(start, end) in &ranges {
            let step = Instant::now();
            let mut g = Graph::new();
            let (mut rtl, mut net, mut rrndm) = (Vec::new(), Vec::new(), Vec::new());
            for &i in &order[start..end] {
                let prep = &s.preps[i];
                net.push(model.netlist_align_frozen(&mut g, &store, &frozen[i].0));
                rtl.push(spans.time("align_text", || {
                    model.rtl_align_trainable(&mut g, &store, &s.world.encoder, &prep.rtl_windows)
                }));
                if let Some(r) = model.rrndm_frozen(&mut g, &store, &frozen[i].1, prep) {
                    rrndm.push(r);
                }
            }
            let rnc = model.rnc_loss(&mut g, &store, &rtl, &net);
            let rnm = model.rnm_loss(&mut g, &store, &rtl, &net);
            let rr = (!rrndm.is_empty()).then(|| {
                let mut acc = rrndm[0];
                for &v in &rrndm[1..] {
                    acc = g.add(acc, v);
                }
                g.scale(acc, 1.0 / rrndm.len() as f32)
            });
            let mut total = g.add(rnc, rnm);
            if let Some(r) = rr {
                total = g.add(total, r);
            }
            if !f64::from(g.value(total).get(0, 0)).is_finite() {
                skipped += 1;
                continue;
            }
            sums[0] += f64::from(g.value(total).get(0, 0));
            sums[1] += f64::from(g.value(rnc).get(0, 0));
            sums[2] += f64::from(g.value(rnm).get(0, 0));
            if let Some(r) = rr {
                sums[3] += f64::from(g.value(r).get(0, 0));
            }
            batches += 1;
            let grads = spans.time("align_backward", || g.backward(total));
            spans.time("align_adam", || opt.step(&mut store, &grads));
            spans.add("align_step", step.elapsed());
        }
        let d = batches.max(1) as f64;
        align.push(AlignEpoch {
            total: sums[0] / d,
            rnc: sums[1] / d,
            rnm: sums[2] / d,
            rrndm: sums[3] / d,
        });
    }
    Round {
        pretrain,
        align,
        pretrain_s,
        align_s: secs(t),
        skipped,
    }
}

fn finite_history(r: &Round) -> bool {
    r.pretrain.iter().all(|e| {
        [e.total, e.probability, e.toggle, e.arrival, e.power]
            .iter()
            .all(|v| v.is_finite())
    }) && r.align.iter().all(|e| {
        [e.total, e.rnc, e.rnm, e.rrndm]
            .iter()
            .all(|v| v.is_finite())
    })
}

/// The job between set-up and report: rounds, each tagged with the
/// shuffle seed it used.
pub struct Job {
    config: ExperimentConfig,
    setup: Setup,
    traced_setup: Option<Setup>,
    setup_s: f64,
    spans: Spans,
    counts: Counts,
    rounds: Vec<(usize, Round)>,
    traced: Vec<(usize, Round)>,
}

impl Job {
    /// Set-up: untraced `SETUPS` times (their median is the job's set-up
    /// time), plus once with spans when tracing.
    pub fn new(seed: u64, trace: bool, report: &mut Report) -> Option<Job> {
        let config = config(seed);
        let mut times = Vec::new();
        let mut setup = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            setup = setup_untraced(config, report);
            times.push(secs(t));
        }
        let mut spans = Spans::default();
        let traced_setup = if trace {
            Some(setup_traced(config, &mut spans)?)
        } else {
            None
        };
        Some(Job {
            config,
            setup: setup?,
            traced_setup,
            setup_s: median(&mut times),
            spans,
            counts: Counts::default(),
            rounds: Vec::new(),
            traced: Vec::new(),
        })
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// One round: a fresh copy of the initial parameters trained for the
    /// fixed epochs, through `Trainer` or — traced — its replay.
    pub fn step(&mut self, traced: bool) {
        match (&self.traced_setup, traced) {
            (Some(ts), true) => {
                let k = self.traced.len() % SHUFFLES;
                let c = shuffle_config(&self.config, k);
                let r = round_traced(ts, &c, &mut self.spans, &mut self.counts);
                self.traced.push((k, r));
            }
            _ => {
                let k = self.rounds.len() % SHUFFLES;
                let r = round(&self.setup, &shuffle_config(&self.config, k));
                self.rounds.push((k, r));
            }
        }
    }

    pub fn finish(self, trace: bool, report: &mut Report) {
        let n = self.setup.preps.len();
        let batches = batch_ranges(n, self.config.train.align_batch.max(2).min(n)).len();
        let steps_pre = (PRETRAIN_EPOCHS * n) as f64;
        let steps_align = (ALIGN_EPOCHS * batches) as f64;
        let reference = |k: usize| self.rounds.iter().find(|(j, _)| *j == k).map(|(_, r)| r);
        for (k, r) in self.rounds.iter().chain(&self.traced) {
            report.count(steps_pre as u64 + steps_align as u64, r.skipped);
            report.check(finite_history(r), "train: every loss is finite");
            report.check(
                r.pretrain.len() == PRETRAIN_EPOCHS
                    && r.pretrain.last().map(|e| e.total) < r.pretrain.first().map(|e| e.total),
                "train: last pretrain epoch's loss is below the first",
            );
            report.check(
                r.align.len() == ALIGN_EPOCHS,
                "train: every align epoch ran",
            );
            report.check(
                reference(*k).is_some_and(|f| r.pretrain == f.pretrain && r.align == f.align),
                "train: rounds with one shuffle seed repeat the same losses, traced or not",
            );
        }
        let rate = |rounds: &[(usize, Round)], f: &dyn Fn(&Round) -> f64| {
            best(rounds.iter().map(|(_, r)| f(r)))
        };
        let pre_rate = rate(&self.rounds, &|r| steps_pre / r.pretrain_s);
        if !trace {
            let mut losses = Vec::new();
            for k in 0..SHUFFLES {
                match reference(k) {
                    Some(r) => losses.push(r.pretrain.last().map_or(f64::NAN, |e| e.total)),
                    None => report.check(false, "train: every shuffle seed ran"),
                }
            }
            let final_loss = losses.iter().sum::<f64>() / losses.len().max(1) as f64;
            let m = self.rounds.len();
            report.metric("train.pretrain_steps_per_s", pre_rate, "steps/s", m);
            let align_rate = rate(&self.rounds, &|r| steps_align / r.align_s);
            report.metric("train.align_steps_per_s", align_rate, "steps/s", m);
            report.metric("train.final_loss", final_loss, "loss", losses.len());
            return;
        }
        let spans = &self.spans;
        let counts = &self.counts;
        let traced_rate = rate(&self.traced, &|r| steps_pre / r.pretrain_s);
        let steps = counts.pretrain_steps.max(1) as f64;
        let n_steps = counts.pretrain_steps as usize;
        let mean = |name: &str| (spans.mean_ms(name), spans.calls(name) as usize);
        for (metric, span) in [
            ("train.forward_small_ms", "forward_small"),
            ("train.forward_large_ms", "forward_large"),
            ("train.backward_ms", "backward"),
            ("train.adam_ms", "adam"),
            ("train.align_frozen_ms", "align_frozen"),
            ("train.align_text_ms", "align_text"),
            ("train.align_backward_ms", "align_backward"),
            ("train.prepare_ms", "prepare"),
            ("train.finetune_ms", "finetune"),
        ] {
            let (v, calls) = mean(span);
            report.metric(metric, v, "ms", calls);
        }
        report.metric(
            "train.tape_ops",
            counts.tape_ops as f64 / steps,
            "count",
            n_steps,
        );
        report.metric(
            "train.pool_tasks",
            counts.pool_tasks as f64 / steps,
            "count",
            n_steps,
        );
        let covered: f64 = ["forward_small", "forward_large", "backward", "adam"]
            .iter()
            .map(|s| spans.total_ms(s))
            .sum();
        report.metric(
            "train.step_coverage",
            covered / spans.total_ms("step"),
            "ratio",
            n_steps,
        );
        report.metric(
            "train.trace_overhead_pct",
            (pre_rate / traced_rate - 1.0) * 100.0,
            "%",
            self.rounds.len() + self.traced.len(),
        );
    }
}
