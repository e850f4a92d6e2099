//! The benchmark's own trace: wall time and call counts around calls into
//! the program's public functions, aggregated in memory by span name.
//! Nothing here reads the program's internal `MOSS_OBS` span tree.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Default, Clone, Copy)]
struct Span {
    calls: u64,
    total: Duration,
}

/// Named timers, filled only by the traced steps of a run.
#[derive(Debug, Default)]
pub struct Spans {
    rows: BTreeMap<&'static str, Span>,
}

impl Spans {
    /// Runs `f`, charging its wall time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }

    /// Charges an interval measured by the caller to `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        let row = self.rows.entry(name).or_default();
        row.calls += 1;
        row.total += d;
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.calls)
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.rows
            .get(name)
            .map_or(0.0, |r| r.total.as_secs_f64() * 1e3)
    }

    /// Mean milliseconds per call (NaN when `name` never ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.total_ms(name) / self.calls(name) as f64
    }
}
