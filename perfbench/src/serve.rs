//! The `serve` job: an in-process `Server` on loopback runs the demo
//! checkpoint. The request stream is seeded `random_netlist` Verilog with
//! sizes spread log-evenly over 50–2,000 cells; half the requests repeat a
//! hot set that is sent once before timing (cache hits: decode and hash
//! only), the rest are first-seen designs (misses: prepare, then the
//! batched forward).
//!
//! Two servers, each started and warmed during set-up, take the stream in
//! slices between the other jobs' steps:
//! - one open loop at a fixed rate. Latency runs from each request's due
//!   time, so a stall also charges the requests queued behind it; when the
//!   generator slept and woke late, it runs from the wake-up instead, so
//!   the generator's own oversleep is not charged to the program;
//! - one closed loop, one request in flight per connection, for capacity.
//!
//! Both servers read the same stream, each from its own cursor, and the
//! stream grows between slices so that no slice can run out of requests.
//! Every reply must be bytewise equal to the in-process embedding of the
//! same design, and the server's `cache_hits` must equal the planned hit
//! count.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use moss::NetlistEmbedder;
use moss_gnn::CircuitGraph;
use moss_netlist::{canonical_hash, parse_verilog, write_verilog};
use moss_serve::protocol::embedding_payload;
use moss_serve::{Client, ServeConfig, Server};

use crate::report::{median, percentile, secs, Report};
use crate::spans::Spans;

/// Designs in the hot set.
const HOT: usize = 48;
/// First-seen design sizes, cycled: the stream's `j`-th miss has size
/// `ladder(MISS_SIZES)[j % MISS_SIZES]` and a structure of its own.
const MISS_SIZES: usize = 800;
/// Requests the stream starts with (half hot, half first-seen).
const STREAM: usize = 1600;
/// Smallest and largest design, in cells.
const MIN_CELLS: f64 = 50.0;
const MAX_CELLS: f64 = 2000.0;
/// Open-loop arrival rate per client connection, requests per second.
const RATE_PER_CONN: f64 = 15.0;
/// Open-loop and closed-loop time per step of the run.
const OPEN_SLICE: Duration = Duration::from_millis(2000);
const CLOSED_SLICE: Duration = Duration::from_millis(400);

/// A request is the index of its design in `designs`: hot and first-seen
/// requests alternate, the hot set cycled in ladder order. The seed picks
/// each design's structure, not its size or place.
struct Stream {
    seed: u64,
    misses: Vec<usize>,
    designs: Vec<String>,
    requests: Vec<usize>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut s = Stream {
            seed,
            misses: ladder(MISS_SIZES),
            designs: Vec::new(),
            requests: Vec::new(),
        };
        for cells in ladder(HOT) {
            let d = s.design(cells);
            s.designs.push(d);
        }
        s.grow(STREAM);
        s
    }

    /// A `random_netlist` design of `cells` cells, seeded by its index.
    fn design(&self, cells: usize) -> String {
        let i = self.designs.len() as u64;
        write_verilog(&moss_datagen::random_netlist(
            crate::mix(self.seed, 0x5e7e_0000 + i),
            cells,
        ))
    }

    /// Appends hot/first-seen request pairs until there are `len` requests.
    fn grow(&mut self, len: usize) {
        while self.requests.len() < len {
            let j = self.requests.len() / 2;
            let d = self.design(self.misses[j % MISS_SIZES]);
            self.designs.push(d);
            self.requests.push(j % HOT);
            self.requests.push(self.designs.len() - 1);
        }
    }

    /// Whether request `i` repeats a hot-set design (a planned cache hit).
    fn is_hit(&self, i: usize) -> bool {
        self.requests[i] < HOT
    }
}

/// `n` sizes spaced evenly in log scale over the cell range, visited in
/// bit-reversed order so that every prefix of the list spans the whole
/// range: a run that gets through part of the stream still sees the same
/// size mix as any other run, whatever the seed.
fn ladder(n: usize) -> Vec<usize> {
    let bits = n.next_power_of_two().trailing_zeros();
    (0..n.next_power_of_two())
        .map(|i| {
            if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (usize::BITS - bits)
            }
        })
        .filter(|&i| i < n)
        .map(|i| {
            let f = (i as f64 + 0.5) / n as f64;
            (MIN_CELLS * (MAX_CELLS / MIN_CELLS).powf(f)).round() as usize
        })
        .collect()
}

/// One completed request.
struct Done {
    request: usize,
    latency: Duration,
    late: Duration,
    reply: Vec<u8>,
}

/// One server's share of the run: every completed request, failures, and
/// the wall time of each slice.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    errors: usize,
    /// Requests completed and wall seconds, per slice that ran its full
    /// time.
    slices: Vec<(usize, f64)>,
    /// Slices cut short because the stream ran out.
    short: usize,
    /// The most requests one slice has completed.
    most: usize,
}

fn start_server(ckpt: &Path) -> std::io::Result<(Server, f64)> {
    let t = Instant::now();
    let embedder = NetlistEmbedder::from_checkpoint_file(ckpt)?;
    let server = Server::start("127.0.0.1:0", embedder, ServeConfig::default())?;
    Ok((server, secs(t)))
}

/// Sends the hot set once, one request at a time, so each design is
/// cached before timing starts.
fn warm(server: &Server, s: &Stream) -> std::io::Result<()> {
    let mut c = Client::connect(server.addr())?;
    for text in &s.designs[..HOT] {
        c.embed_raw(text)?;
    }
    Ok(())
}

/// Runs the stream from one thread per client connection, continuing
/// at `cursor`, until the stream is exhausted or `slice` passes. With
/// `rate`, the `j`-th request of the slice is due `j / rate` seconds after
/// it starts (open loop); without, each connection sends as soon as its
/// previous reply arrives (closed loop). Returns the slice's wall time and
/// whether the stream ran out before the slice ended.
fn drive(
    s: &Stream,
    clients: &mut [Client],
    rate: Option<f64>,
    slice: Duration,
    cursor: &AtomicUsize,
    into: &mut Phase,
) -> (f64, bool) {
    let first = cursor.load(Ordering::Relaxed);
    let out = Mutex::new((Vec::new(), 0usize, false));
    let start = Instant::now();
    let deadline = start + slice;
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let out = &out;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut errors = 0;
                let mut ran_out = false;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= s.requests.len() {
                        ran_out = true;
                        break;
                    }
                    let due = match rate {
                        Some(r) => start + Duration::from_secs_f64((i - first) as f64 / r),
                        None => Instant::now(),
                    };
                    if due >= deadline {
                        // Not sent: the next slice starts from it.
                        cursor.fetch_min(i, Ordering::Relaxed);
                        break;
                    }
                    // Latency runs from the due time, or from the wake-up
                    // when the generator slept past it.
                    let mut origin = due;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                        origin = Instant::now();
                    }
                    match client.embed_raw(&s.designs[s.requests[i]]) {
                        Ok(reply) => local.push(Done {
                            request: i,
                            latency: origin.elapsed(),
                            late: origin - due,
                            reply,
                        }),
                        Err(e) => {
                            eprintln!("perfbench: serve request {i} failed: {e}");
                            errors += 1;
                        }
                    }
                }
                let mut o = out.lock().expect("result lock");
                o.0.extend(local);
                o.1 += errors;
                o.2 |= ran_out;
            });
        }
    });
    let elapsed = secs(start);
    let (done, errors, ran_out) = out.into_inner().expect("result lock");
    // A cursor moved past the end by threads that found nothing to send.
    cursor.fetch_min(s.requests.len(), Ordering::Relaxed);
    into.errors += errors;
    into.done.extend(done);
    (elapsed, ran_out)
}

fn stat(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    json.find(&pat)
        .and_then(|at| {
            let rest = &json[at + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(u64::MAX)
}

/// Latencies of hit and miss requests, in ms, sorted.
fn split_ms(s: &Stream, p: &Phase) -> (Vec<f64>, Vec<f64>) {
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for d in &p.done {
        let ms = d.latency.as_secs_f64() * 1e3;
        if s.is_hit(d.request) {
            hit.push(ms);
        } else {
            miss.push(ms);
        }
    }
    hit.sort_by(f64::total_cmp);
    miss.sort_by(f64::total_cmp);
    (hit, miss)
}

/// Counts, failures and the planned-hit check for one phase.
fn check_phase(s: &Stream, p: &Phase, stats: &str, name: &str, report: &mut Report) {
    let planned = p.done.iter().filter(|d| s.is_hit(d.request)).count() as u64;
    report.count((p.done.len() + p.errors) as u64, p.errors as u64);
    report.check(
        p.errors == 0,
        &format!("serve {name}: every request answered"),
    );
    let hits = stat(stats, "cache_hits");
    report.check(
        hits == planned,
        &format!("serve {name}: cache_hits {hits} equals planned {planned}"),
    );
    report.check(
        stat(stats, "errors") == 0 && stat(stats, "rejected") == 0,
        &format!("serve {name}: no errored or shed requests"),
    );
}

/// Expected reply bytes for every design the load touched, from
/// `NetlistEmbedder::embed` in-process (untimed).
fn expected(embedder: &NetlistEmbedder, s: &Stream, used: &[usize]) -> HashMap<usize, Vec<u8>> {
    moss_tensor::par_map(used, |_, &d| {
        let netlist = parse_verilog(&s.designs[d]).expect("generated Verilog parses");
        let e = embedder
            .embed(&netlist)
            .expect("generated netlist levelizes");
        (d, embedding_payload(&e))
    })
    .into_iter()
    .collect()
}

/// [`expected`] from the public parts `embed` runs — decode, hash,
/// prepare, then the forward batched `batch` at a time — with spans.
/// Also returns each design's own stage time in ms (the whole forward of
/// its batch counts, since every member waits for it).
fn expected_traced(
    embedder: &NetlistEmbedder,
    s: &Stream,
    used: &[usize],
    batch: usize,
    spans: &mut Spans,
) -> (HashMap<usize, Vec<u8>>, HashMap<usize, f64>) {
    let mut stage_ms = HashMap::new();
    let mut graphs: Vec<(usize, CircuitGraph)> = Vec::with_capacity(used.len());
    for &d in used {
        let t = Instant::now();
        let netlist = spans
            .time("decode", || parse_verilog(&s.designs[d]))
            .expect("generated Verilog parses");
        std::hint::black_box(spans.time("hash", || canonical_hash(&netlist)));
        let g = spans
            .time("prepare", || embedder.prepare(&netlist))
            .expect("generated netlist levelizes");
        stage_ms.insert(d, secs(t) * 1e3);
        graphs.push((d, g));
    }
    let mut out = HashMap::new();
    for chunk in graphs.chunks(batch.max(1)) {
        let refs: Vec<&CircuitGraph> = chunk.iter().map(|(_, g)| g).collect();
        let t = Instant::now();
        let rows = spans.time("forward", || embedder.embed_graphs(&refs));
        let forward_ms = secs(t) * 1e3;
        for ((d, _), e) in chunk.iter().zip(rows) {
            out.insert(*d, embedding_payload(&e));
            *stage_ms.entry(*d).or_default() += forward_ms;
        }
    }
    (out, stage_ms)
}

fn check_replies(
    s: &Stream,
    phases: &[&Phase],
    want: &HashMap<usize, Vec<u8>>,
    report: &mut Report,
) {
    let bad = phases
        .iter()
        .flat_map(|p| &p.done)
        .filter(|d| want.get(&s.requests[d.request]) != Some(&d.reply))
        .count();
    report.check(
        bad == 0,
        &format!("serve: {bad} replies differ from the in-process embedding"),
    );
}

fn used_designs(s: &Stream, phases: &[&Phase]) -> Vec<usize> {
    let mut used: Vec<usize> = phases
        .iter()
        .flat_map(|p| &p.done)
        .map(|d| s.requests[d.request])
        .collect();
    used.sort_unstable();
    used.dedup();
    used
}

/// The p50 of `sorted` and, with `tail`, its p90. The hit p90 is left out:
/// it rests on the dozen slowest hits of a run and did not hold steady.
fn latency_metrics(prefix: &str, sorted: &[f64], tail: bool, report: &mut Report) {
    let mut v = sorted.to_vec();
    report.metric(
        &format!("serve.{prefix}_p50_ms"),
        median(&mut v),
        "ms",
        sorted.len(),
    );
    if !tail {
        return;
    }
    match percentile(sorted, 90.0) {
        Some(p90) => report.metric(&format!("serve.{prefix}_p90_ms"), p90, "ms", sorted.len()),
        None => report.check(
            false,
            &format!(
                "serve: {} {prefix} samples are too few for a p90",
                sorted.len()
            ),
        ),
    }
}

/// The job between set-up and report: two warmed servers, one fed open
/// loop and one closed loop, each step adding a slice of load to both.
pub struct Job {
    stream: Stream,
    dir: PathBuf,
    ckpt: PathBuf,
    conns: usize,
    rate: f64,
    servers: [Server; 2],
    clients: [Vec<Client>; 2],
    cursors: [AtomicUsize; 2],
    phases: [Phase; 2],
    setup_s: f64,
}

impl Job {
    /// Set-up: the request stream and the demo checkpoint (untimed), then
    /// two server starts (their median is the job's set-up time) and the
    /// hot set sent to each.
    pub fn new(seed: u64, conns: usize, report: &mut Report) -> Option<Job> {
        let stream = Stream::new(seed);
        let dir = PathBuf::from(".perfbench_work").join(format!("serve-{}", std::process::id()));
        let ckpt = dir.join("demo.mossckp");
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| moss_serve::write_demo_checkpoint(&ckpt));
        if let Err(e) = written {
            report.check(
                false,
                &format!("serve: cannot write the demo checkpoint: {e}"),
            );
            return None;
        }
        let mut times = Vec::new();
        let mut start = || -> Option<(Server, Vec<Client>)> {
            let started = start_server(&ckpt).and_then(|(server, t)| {
                warm(&server, &stream)?;
                times.push(t);
                let clients = (0..conns)
                    .map(|_| Client::connect(server.addr()))
                    .collect::<std::io::Result<Vec<_>>>()?;
                Ok((server, clients))
            });
            match started {
                Ok(s) => Some(s),
                Err(e) => {
                    report.check(
                        false,
                        &format!("serve: cannot start and warm a server: {e}"),
                    );
                    None
                }
            }
        };
        let (open, open_clients) = start()?;
        let (closed, closed_clients) = start()?;
        Some(Job {
            stream,
            dir,
            ckpt,
            conns,
            rate: RATE_PER_CONN * conns as f64,
            servers: [open, closed],
            clients: [open_clients, closed_clients],
            cursors: [AtomicUsize::new(0), AtomicUsize::new(0)],
            phases: [Phase::default(), Phase::default()],
            setup_s: median(&mut times),
        })
    }

    pub fn setup_s(&self) -> f64 {
        self.setup_s
    }

    /// One open-loop slice on the first server, one closed-loop slice on
    /// the second. Before each, the stream grows (untimed) to twice the
    /// most requests a slice of that server has taken past its cursor.
    pub fn step(&mut self) {
        for (k, (rate, slice)) in [(Some(self.rate), OPEN_SLICE), (None, CLOSED_SLICE)]
            .into_iter()
            .enumerate()
        {
            let cursor = self.cursors[k].load(Ordering::Relaxed);
            self.stream.grow(cursor + 2 * self.phases[k].most);
            let before = self.phases[k].done.len();
            let (t, ran_out) = drive(
                &self.stream,
                &mut self.clients[k],
                rate,
                slice,
                &self.cursors[k],
                &mut self.phases[k],
            );
            let phase = &mut self.phases[k];
            let completed = phase.done.len() - before;
            phase.most = phase.most.max(completed);
            if ran_out {
                phase.short += 1;
            } else {
                phase.slices.push((completed, t));
            }
        }
    }

    pub fn finish(self, trace: bool, report: &mut Report) {
        let Job {
            stream: s,
            dir,
            ckpt,
            conns,
            rate,
            servers,
            clients,
            phases,
            ..
        } = self;
        let stats: Vec<String> = servers.iter().map(Server::stats_json).collect();
        drop(clients);
        drop(servers);
        let embedder = NetlistEmbedder::from_checkpoint_file(&ckpt);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(".perfbench_work");
        let Ok(embedder) = embedder else {
            report.check(false, "serve: cannot load the demo checkpoint in-process");
            return;
        };
        check_phase(&s, &phases[0], &stats[0], "open loop", report);
        check_phase(&s, &phases[1], &stats[1], "closed loop", report);
        let refs: Vec<&Phase> = phases.iter().collect();
        let used = used_designs(&s, &refs);
        let (open, closed) = (&phases[0], &phases[1]);
        if !trace {
            let (hit, miss) = split_ms(&s, open);
            let want = expected(&embedder, &s, &used);
            check_replies(&s, &refs, &want, report);
            latency_metrics("hit", &hit, false, report);
            latency_metrics("miss", &miss, true, report);
            let mut qps: Vec<f64> = closed.slices.iter().map(|&(n, t)| n as f64 / t).collect();
            report.metric(
                "serve.capacity_qps",
                median(&mut qps),
                "req/s",
                closed.slices.len(),
            );
            report.note(&format!(
                "serve: open loop at {rate} req/s over {conns} connection(s)"
            ));
            if closed.short > 0 {
                report.note(&format!(
                    "serve: {} closed-loop slice(s) ran out of stream and are left out",
                    closed.short
                ));
            }
            return;
        }

        let batches = stat(&stats[0], "batches").max(1);
        let mean_batch = stat(&stats[0], "batched_requests") as f64 / batches as f64;
        let mut spans = Spans::default();
        let (want, stage_ms) = expected_traced(
            &embedder,
            &s,
            &used,
            mean_batch.round() as usize,
            &mut spans,
        );
        check_replies(&s, &refs, &want, report);
        let requests = stat(&stats[0], "requests").max(1);
        // Each miss's latency beyond its own design's stage time: the
        // batch window, socket and queue.
        let mut waits: Vec<f64> = open
            .done
            .iter()
            .filter(|d| !s.is_hit(d.request))
            .map(|d| d.latency.as_secs_f64() * 1e3 - stage_ms[&s.requests[d.request]])
            .collect();
        let lates: Vec<f64> = open
            .done
            .iter()
            .map(|d| d.late.as_secs_f64() * 1e3)
            .collect();
        let calls = |name: &str| spans.calls(name) as usize;
        report.metric(
            "serve.decode_us",
            spans.mean_ms("decode") * 1e3,
            "us",
            calls("decode"),
        );
        report.metric(
            "serve.hash_us",
            spans.mean_ms("hash") * 1e3,
            "us",
            calls("hash"),
        );
        report.metric(
            "serve.prepare_ms",
            spans.mean_ms("prepare"),
            "ms",
            calls("prepare"),
        );
        report.metric(
            "serve.forward_ms",
            spans.mean_ms("forward"),
            "ms",
            calls("forward"),
        );
        report.note(&format!(
            "serve: forward timed at batch {}",
            mean_batch.round().max(1.0)
        ));
        report.metric(
            "serve.cache_hit_ratio",
            stat(&stats[0], "cache_hits") as f64 / requests as f64,
            "ratio",
            requests as usize,
        );
        report.metric("serve.mean_batch", mean_batch, "count", batches as usize);
        report.metric("serve.miss_wait_ms", median(&mut waits), "ms", waits.len());
        report.metric(
            "serve.late_ms",
            lates.iter().sum::<f64>() / lates.len().max(1) as f64,
            "ms",
            lates.len(),
        );
    }
}
