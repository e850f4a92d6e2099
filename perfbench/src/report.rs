//! Result collection: named metrics with units and sample counts, output
//! checks, failure counts, and the one-line JSON summary the run ends with.

use std::fmt::Write as _;
use std::time::Instant;

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Records one metric and prints it with its unit and sample count.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        println!("{name:<28} {value:>14.6} {unit:<8} (n={samples})");
        if !value.is_finite() {
            self.check(false, &format!("{name} is not finite"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints a line that is not a metric (a dropped metric's reason, a
    /// digest, a setting).
    pub fn note(&self, text: &str) {
        println!("# {text}");
    }

    /// An output check: a failure marks the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.correct = false;
        }
    }

    /// Counts operations the workload attempted and how many failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.correct && self.attempted > 0
    }

    /// The summary line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `values` (which it sorts); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The best (largest) of a batch job's per-sample rates. The machine's
/// other load only ever slows a sample down, and it comes in stretches that
/// can cover most of a run, so the fastest sample is the steadiest measure
/// of the program's own cost; a median moves with the neighbours' load.
pub fn best(rates: impl Iterator<Item = f64>) -> f64 {
    rates.fold(f64::NAN, f64::max)
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, or `None` unless at
/// least ten samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a fold of one word into `h`, the digest the label checks compare.
pub fn fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
