//! End-to-end benchmark of the MOSS workspace.
//!
//! ```text
//! perfbench --workload <t2|t2c1> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run executes the three jobs the system exists for, taking turns:
//! `train` (pretrain + align), `label` (synth → sim → STA → power → store,
//! cold then warm) and `serve` (embedding requests over loopback). It
//! checks their outputs and prints every metric with its unit and sample
//! count, then a one-line JSON summary as the last line of stdout. With
//! `--trace 1` it reports the per-layer breakdown instead, timed by this
//! package around calls into each crate's public functions.
//!
//! Both workloads run the pool with `MOSS_THREADS=2`, the machine's core
//! count; the workload fixes the serving connections: `t2` serves two, so
//! the server sees concurrent requests, and `t2c1` one, so it never does.
//! The inputs — the train shuffle orders, the label corpus and the request
//! stream — come from `--seed`.

mod label;
mod report;
mod serve;
mod spans;
mod train;

use std::process::ExitCode;

use report::{peak_rss_mb, Report};

/// Steps every run makes at least, whatever `--seconds` says: enough for
/// each of the train job's shuffle seeds to run in an untraced run (a
/// traced run's traced rounds then each find an untraced twin), and for a
/// p90 of each serve request class.
const MIN_STEPS: usize = train::SHUFFLES;
/// Wall time of one step on the quiet 2-vCPU machine the benchmark was
/// tuned on; `--seconds` is turned into a step count with it.
const STEP_SECONDS: f64 = 4.5;
/// The pool size, `MOSS_THREADS`, in every workload: the 2 cores of the
/// machine the benchmark is sized for.
const THREADS: usize = 2;

/// The number of steps a run makes. It depends on `--seconds` only, never
/// on how fast the steps go, so every run takes the same number of samples
/// of each job and a slower job cannot take samples away from the others.
fn steps_for(seconds: f64) -> usize {
    ((seconds / STEP_SECONDS).round() as usize).max(MIN_STEPS)
}

struct Args {
    conns: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let conns = match workload.as_deref() {
        Some("t2") => 2,
        Some("t2c1") => 1,
        other => return Err(format!("unknown workload {other:?} (t2 or t2c1)")),
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        conns,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A seed for one consumer, derived from the workload seed (splitmix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pins the environment the program reads: the pool size, and none of
/// the observability, fault, backend or serving overrides.
fn pin_environment() {
    for (key, _) in std::env::vars() {
        if key.starts_with("MOSS_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("MOSS_THREADS", THREADS.to_string());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let mut report = Report::new();
    let (Some(mut train), mut label, Some(mut serve)) = (
        train::Job::new(args.seed, args.trace, &mut report),
        label::Job::new(args.seed),
        serve::Job::new(args.seed, args.conns, &mut report),
    ) else {
        println!("{}", report.json());
        return ExitCode::FAILURE;
    };
    let setup_s = train.setup_s() + label.setup_s() + serve.setup_s();

    // The jobs take turns, one short step each, so every job's samples
    // spread over the whole run and a slow stretch of the machine lands on
    // all of them alike. A traced run alternates untraced and traced steps.
    for step in 0..steps_for(args.seconds) {
        let traced = args.trace && step % 2 == 1;
        train.step(traced);
        label.step(traced);
        serve.step();
    }
    train.finish(args.trace, &mut report);
    label.finish(args.trace, &mut report);
    serve.finish(args.trace, &mut report);
    if !args.trace {
        report.metric("setup_s", setup_s, "s", 1);
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
