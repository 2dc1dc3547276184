//! `loadgen` — multiplexed load generator for `lookhd serve`.
//!
//! Drives up to thousands of concurrent connections against a running
//! server from a single thread: every socket is nonblocking and
//! multiplexed over a [`netpoll::Poller`], with pipelined requests,
//! optional open-loop rate pacing, and a per-request response deadline.
//! Measures per-request latency and writes a percentile report under
//! `results/` — the serving-path analogue of the paper's throughput
//! experiments.
//!
//! ```text
//! cargo run --release -p lookhd-bench --bin loadgen -- \
//!     --addr 127.0.0.1:4100 --data queries.csv \
//!     [--connections 4 --requests 100 --pipeline 1 --rate 0
//!      --deadline-ms 30000 --curve 4,64,256,1024
//!      --out results/serve_loadgen.txt --trace --admin 127.0.0.1:4101
//!      --bench-out BENCH_serve.json --shutdown]
//! ```
//!
//! * `--connections N` — concurrent connections (one curve point);
//! * `--curve A,B,C` — sweep several connection counts in one run and
//!   record a throughput/latency-vs-connections curve;
//! * `--requests N` — requests per connection (per curve point);
//! * `--pipeline D` — max outstanding requests per connection (1 =
//!   closed loop per connection);
//! * `--rate R` — open-loop aggregate issue rate in requests/second
//!   (0 = as fast as the pipeline window allows);
//! * `--deadline-ms T` — a response slower than this counts as dropped;
//!   the run fails if any in-deadline request is dropped.
//!
//! Feature vectors come from `--data` (label-free CSV rows, reused
//! round-robin). `--shutdown` sends a graceful-shutdown frame after the
//! burst, which is how `scripts/ci.sh` stops its smoke-test server.
//!
//! * `--feedback` — issue `LHF1` feedback frames instead of predicts:
//!   `--data` rows must carry labels in the final column (the `train`
//!   CSV shape) and every response must be a `FeedbackAck`. The issue
//!   order is deterministic (row `(conn + seq) % rows` per connection),
//!   so a scraper can compute the exact expected per-class
//!   `train.observed.<class>` counters;
//! * `--refresh` — after the burst, send one refresh frame and require
//!   a `RefreshAck` (prints the new model version). Combined with
//!   `--feedback` this is the hot-swap smoke driver in `scripts/ci.sh`.
//!
//! `--trace` sends every request as a v2 frame with a distinct trace id
//! (`request id + 1`) and fails the run if a response echoes the wrong
//! id — the client half of the end-to-end tracing contract. `--admin`
//! scrapes the server's live `/metrics.json` after the burst and reports
//! the server-side `serve/request` percentiles (decode begin to response
//! appended) next to the client-side latency.
//! `--bench-out` additionally writes a schema-versioned machine-readable
//! summary (schema v3: workload shape, host provenance, and a `runs`
//! array — one entry per server configuration, each holding a
//! throughput/latency curve over connection counts).
//!
//! * `--reactors N` — provenance label only: records how many reactor
//!   threads the *server* was started with in the bench JSON run entry
//!   (loadgen cannot observe this; the harness passes it through);
//! * `--bench-append` — splice this run into an existing schema-v3
//!   `--bench-out` file's `runs` array instead of overwriting, so a
//!   harness can sweep `--reactors 1,2,4` into one curve-of-curves.
//!
//! The `host` block records both `cores` and `loadgen_shares_host:
//! true`: the generator runs on the same machine as the server, so
//! throughput numbers are co-located measurements, not isolated ones.

use std::collections::HashMap;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use lookhd_serve::wire::{decode_response, encode_request, FrameDecoder, Request, Response};
use lookhd_serve::Client;
use netpoll::{Interest, Poller};

/// Upper bound on one point's run, relative to the response deadline:
/// after the last request is issued, the server gets one full deadline
/// to answer; a stall beyond that counts the remainder as dropped.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Bytes one `read(2)` may land in a connection's decoder buffer. Each
/// connection keeps a buffer this size, so it stays small for thousands
/// of connections; responses are tens of bytes, so a read still drains
/// a deep pipeline.
const READ_CHUNK: usize = 4 * 1024;

/// Ceil-rank percentile over an ascending-sorted sample: the smallest
/// sample ≥ the requested fraction of the distribution. Nearest-rank
/// rounding under-reports tail percentiles on small counts (with n=100,
/// `round(0.99·99) = 98` returns the 99th-largest sample instead of the
/// 100th), so the rank is always rounded *up*.
fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (p * (sorted_ns.len() - 1) as f64).ceil() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Pulls `"<field>": <uint>` out of a snapshot JSON document, scanning
/// forward from the first occurrence of `anchor`. The snapshot format is
/// deterministic (see `obs::Snapshot::to_json`), so a string scan is
/// enough — the bench crate deliberately has no JSON parser.
fn json_field_u64(doc: &str, anchor: &str, field: &str) -> Option<u64> {
    let from = doc.find(anchor)? + anchor.len();
    let rest = &doc[from..];
    let needle = format!("\"{field}\": ");
    let at = rest.find(&needle)? + needle.len();
    let digits: String = rest[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn fail(message: &str) -> ! {
    eprintln!("loadgen: {message}");
    std::process::exit(1);
}

/// Minimal `--flag value` / `--switch` parser (the bench crate stays
/// dependency-free; mirrors the CLI's conventions).
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse() -> Self {
        let tokens: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let Some(name) = tokens[i].strip_prefix("--") else {
                fail(&format!("unexpected positional argument `{}`", tokens[i]));
            };
            match tokens.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((name.to_owned(), value.clone()));
                    i += 2;
                }
                _ => {
                    switches.push(name.to_owned());
                    i += 1;
                }
            }
        }
        Self { pairs, switches }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|_| fail(&format!("bad value for --{name}: `{raw}`"))),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// One connection's client-side state in the multiplexed loop.
struct Slot {
    stream: TcpStream,
    decoder: FrameDecoder,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Request id → send instant, matched when the response arrives.
    inflight: HashMap<u64, Instant>,
    /// Requests encoded so far (bounded by the per-connection quota).
    queued: usize,
    interest: Interest,
    dead: bool,
}

impl Slot {
    fn backlog(&self) -> usize {
        self.outbuf.len() - self.outpos
    }
}

/// Everything measured at one connection count.
struct PointReport {
    connections: usize,
    ok: usize,
    errors: usize,
    mismatches: usize,
    /// Requests with no response inside the deadline (late responses
    /// and requests still unanswered when the point gave up).
    dropped: usize,
    wall: Duration,
    /// Ascending in-deadline latencies.
    latencies_ns: Vec<u64>,
}

impl PointReport {
    fn throughput_rps(&self) -> f64 {
        self.ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    fn mean_ns(&self) -> u64 {
        if self.latencies_ns.is_empty() {
            0
        } else {
            self.latencies_ns.iter().sum::<u64>() / self.latencies_ns.len() as u64
        }
    }
}

struct Workload<'a> {
    addr: &'a str,
    rows: &'a [Vec<f64>],
    /// Per-row class labels: `Some` switches the run to feedback
    /// traffic (`LHF1` frames, `FeedbackAck` responses).
    labels: Option<&'a [u32]>,
    requests_per_conn: usize,
    pipeline: usize,
    rate_rps: u64,
    deadline: Duration,
    traced: bool,
}

/// Runs one curve point: `connections` multiplexed clients, each issuing
/// its quota with up to `pipeline` outstanding, paced to `rate_rps`
/// aggregate when nonzero.
fn run_point(w: &Workload<'_>, connections: usize) -> PointReport {
    let poller = Poller::new().unwrap_or_else(|e| fail(&format!("creating poller: {e}")));
    let mut slots: Vec<Slot> = Vec::with_capacity(connections);
    for c in 0..connections {
        // Brief retries absorb SYN-backlog overflow when thousands of
        // connects race the server's accept loop.
        let mut stream = None;
        for attempt in 0..50 {
            match TcpStream::connect(w.addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) if attempt == 49 => fail(&format!("connecting {} (conn {c}): {e}", w.addr)),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let stream = stream.unwrap();
        let _ = stream.set_nodelay(true);
        stream
            .set_nonblocking(true)
            .unwrap_or_else(|e| fail(&format!("nonblocking conn {c}: {e}")));
        poller
            .register(stream.as_raw_fd(), c as u64, Interest::READABLE)
            .unwrap_or_else(|e| fail(&format!("registering conn {c}: {e}")));
        slots.push(Slot {
            stream,
            decoder: FrameDecoder::new(),
            outbuf: Vec::new(),
            outpos: 0,
            inflight: HashMap::new(),
            queued: 0,
            interest: Interest::READABLE,
            dead: false,
        });
    }

    let total = connections * w.requests_per_conn;
    let mut report = PointReport {
        connections,
        ok: 0,
        errors: 0,
        mismatches: 0,
        dropped: 0,
        wall: Duration::ZERO,
        latencies_ns: Vec::with_capacity(total),
    };
    let started = Instant::now();
    let mut issued_total = 0usize;
    let mut events = Vec::new();
    let mut last_progress = Instant::now();

    loop {
        let accounted = report.ok + report.errors + report.dropped;
        if accounted >= total {
            break;
        }
        // Watchdog: no response for a full deadline → everything still
        // outstanding (or never issued) is dropped.
        if last_progress.elapsed() > w.deadline + POLL_TICK {
            report.dropped = total - report.ok - report.errors;
            break;
        }

        // Issue phase: rate budget, then fill each connection's window.
        let mut budget = if w.rate_rps == 0 {
            usize::MAX
        } else {
            let allowed = (started.elapsed().as_secs_f64() * w.rate_rps as f64) as usize;
            allowed.saturating_sub(issued_total)
        };
        for (c, slot) in slots.iter_mut().enumerate() {
            if slot.dead {
                continue;
            }
            while budget > 0
                && slot.queued < w.requests_per_conn
                && slot.inflight.len() < w.pipeline
            {
                let id = (c * w.requests_per_conn + slot.queued) as u64;
                // Trace ids are request id + 1: distinct per request,
                // never the reserved 0.
                let trace_id = if w.traced { id + 1 } else { 0 };
                let row_idx = (c + slot.queued) % w.rows.len();
                let row = &w.rows[row_idx];
                let request = match w.labels {
                    Some(labels) => Request::Feedback {
                        id,
                        trace_id,
                        label: labels[row_idx],
                        features: row.clone(),
                    },
                    None => Request::Predict {
                        id,
                        trace_id,
                        features: row.clone(),
                    },
                };
                let body = encode_request(&request);
                slot.outbuf
                    .extend_from_slice(&u32::try_from(body.len()).unwrap().to_le_bytes());
                slot.outbuf.extend_from_slice(&body);
                slot.inflight.insert(id, Instant::now());
                slot.queued += 1;
                issued_total += 1;
                budget -= 1;
            }
        }

        // Flush phase: write every backlog until it drains or blocks.
        for (c, slot) in slots.iter_mut().enumerate() {
            if slot.dead || slot.backlog() == 0 {
                continue;
            }
            loop {
                match slot.stream.write(&slot.outbuf[slot.outpos..]) {
                    Ok(0) => {
                        slot.dead = true;
                        break;
                    }
                    Ok(n) => {
                        slot.outpos += n;
                        if slot.backlog() == 0 {
                            slot.outbuf.clear();
                            slot.outpos = 0;
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        slot.dead = true;
                        break;
                    }
                }
            }
            let want = if slot.backlog() > 0 {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            if !slot.dead && (want.is_writable() != slot.interest.is_writable()) {
                let _ = poller.modify(slot.stream.as_raw_fd(), c as u64, want);
                slot.interest = want;
            }
        }

        // Wait: short tick so rate pacing and the watchdog stay live.
        poller
            .wait(&mut events, Some(POLL_TICK))
            .unwrap_or_else(|e| fail(&format!("poll: {e}")));
        for event in &events {
            let c = event.token as usize;
            if c >= slots.len() {
                continue;
            }
            let slot = &mut slots[c];
            if slot.dead {
                continue;
            }
            if event.readable || event.hangup {
                // Edge-triggered: read to `WouldBlock`, straight into the
                // decoder's buffer, and settle every frame it completes.
                while !slot.dead {
                    match slot.stream.read(slot.decoder.space(READ_CHUNK)) {
                        Ok(0) => slot.dead = true,
                        Ok(n) => slot.decoder.commit(n),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => slot.dead = true,
                    }
                    loop {
                        let frame = match slot.decoder.next_frame() {
                            Ok(Some(frame)) => frame,
                            Ok(None) => break,
                            Err(_) => {
                                slot.dead = true;
                                break;
                            }
                        };
                        match decode_response(frame) {
                            Ok(
                                Response::Predict {
                                    id,
                                    trace_id: got_trace,
                                    ..
                                }
                                | Response::FeedbackAck {
                                    id,
                                    trace_id: got_trace,
                                    ..
                                },
                            ) => match slot.inflight.remove(&id) {
                                Some(sent) => {
                                    let took = sent.elapsed();
                                    if took > w.deadline {
                                        report.dropped += 1;
                                    } else {
                                        report.latencies_ns.push(took.as_nanos() as u64);
                                        report.ok += 1;
                                    }
                                    let want_trace = if w.traced { id + 1 } else { 0 };
                                    if got_trace != want_trace {
                                        report.mismatches += 1;
                                    }
                                    last_progress = Instant::now();
                                }
                                None => report.mismatches += 1,
                            },
                            Ok(Response::Error { id, .. }) => {
                                if slot.inflight.remove(&id).is_some() {
                                    report.errors += 1;
                                    last_progress = Instant::now();
                                }
                            }
                            Ok(_) => report.errors += 1,
                            Err(e) => {
                                eprintln!("loadgen: conn {c}: bad response: {e}");
                                slot.dead = true;
                            }
                        }
                    }
                }
            } else if event.writable && slot.backlog() > 0 {
                // Next outer iteration's flush phase retries the write;
                // nothing to do here beyond waking up.
            }
            if slot.dead {
                // A closed connection answers nothing further: its
                // outstanding and unissued requests are all lost.
                let lost = slot.inflight.len() + (w.requests_per_conn - slot.queued);
                report.errors += lost;
                issued_total += w.requests_per_conn - slot.queued;
                slot.queued = w.requests_per_conn;
                slot.inflight.clear();
                let _ = poller.deregister(slot.stream.as_raw_fd());
            }
        }
    }

    report.wall = started.elapsed();
    report.latencies_ns.sort_unstable();
    report
}

fn main() {
    let flags = Flags::parse();
    let addr = flags
        .get("addr")
        .unwrap_or_else(|| fail("--addr HOST:PORT is required"))
        .to_owned();
    let connections = flags.get_or("connections", 4usize).max(1);
    let requests = flags.get_or("requests", 100usize).max(1);
    let pipeline = flags.get_or("pipeline", 1usize).max(1);
    let rate_rps = flags.get_or("rate", 0u64);
    let deadline = Duration::from_millis(flags.get_or("deadline-ms", 30_000u64).max(1));
    let traced = flags.switch("trace");
    let feedback = flags.switch("feedback");
    let refresh = flags.switch("refresh");
    let reactors_label = flags.get_or("reactors", 1usize).max(1);
    let admin_addr = flags.get("admin").map(str::to_owned);
    let bench_out = flags.get("bench-out").map(str::to_owned);
    let bench_append = flags.switch("bench-append");
    let out_path = flags
        .get("out")
        .unwrap_or("results/serve_loadgen.txt")
        .to_owned();
    let curve: Vec<usize> = match flags.get("curve") {
        None => vec![connections],
        Some(raw) => raw
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| fail(&format!("bad --curve entry `{t}`")))
            })
            .collect(),
    };
    if curve.is_empty() {
        fail("--curve needs at least one connection count");
    }

    // Query rows: CSV if given, else a deterministic synthetic ramp.
    // Feedback traffic needs labels, so it loads the labelled CSV shape
    // (or labels the synthetic ramp round-robin over 3 classes).
    let (rows, labels): (Vec<Vec<f64>>, Option<Vec<u32>>) = match (flags.get("data"), feedback) {
        (Some(path), false) => (
            lookhd_datasets::csv::load_features(path)
                .unwrap_or_else(|e| fail(&format!("{path}: {e}"))),
            None,
        ),
        (Some(path), true) => {
            let split = lookhd_datasets::csv::load_split(path)
                .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            let labels = split
                .labels
                .iter()
                .map(|&y| u32::try_from(y).unwrap_or_else(|_| fail("label exceeds u32")))
                .collect();
            (split.features, Some(labels))
        }
        (None, _) => {
            let dim = flags.get_or("features", 4usize).max(1);
            let rows: Vec<Vec<f64>> = (0..64)
                .map(|i| (0..dim).map(|j| ((i + j) % 10) as f64 / 10.0).collect())
                .collect();
            let labels = feedback.then(|| (0..rows.len() as u32).map(|i| i % 3).collect());
            (rows, labels)
        }
    };
    if rows.is_empty() {
        fail("no query rows");
    }

    let workload = Workload {
        addr: &addr,
        rows: &rows,
        labels: labels.as_deref(),
        requests_per_conn: requests,
        pipeline,
        rate_rps,
        deadline,
        traced,
    };
    let points: Vec<PointReport> = curve.iter().map(|&n| run_point(&workload, n)).collect();

    // The refresh round-trips *before* the admin scrape so the scraped
    // `model.version` counter reflects the swap this run triggered.
    let refreshed_version: Option<u64> = refresh.then(|| {
        let mut client = Client::connect(&addr)
            .unwrap_or_else(|e| fail(&format!("connecting {addr} for refresh: {e}")));
        match client.refresh(u64::MAX - 1) {
            Ok(Response::RefreshAck { version, .. }) => version,
            Ok(other) => fail(&format!("unexpected refresh acknowledgement: {other:?}")),
            Err(e) => fail(&format!("refresh failed: {e}")),
        }
    });

    // Scrape the live admin endpoint *before* any shutdown frame: the
    // admin listener stops when the server drains.
    let server_request: Option<(u64, u64, u64)> = admin_addr.as_deref().map(|admin| {
        let doc = lookhd_serve::http_get(admin, "/metrics.json")
            .unwrap_or_else(|e| fail(&format!("scraping {admin}/metrics.json: {e}")));
        let anchor = "\"path\": \"serve/request\"";
        let get = |field| {
            json_field_u64(&doc, anchor, field)
                .unwrap_or_else(|| fail(&format!("no {field} for serve/request in {admin}")))
        };
        (get("p50_ns"), get("p95_ns"), get("p99_ns"))
    });

    // Health is part of the scrape: a 503 here is signal (draining,
    // sustained shed, or SLO burn), not a transport failure, so probe
    // with the status-preserving GET.
    let server_health: Option<(u16, String)> = admin_addr.as_deref().map(|admin| {
        let (status, body) = lookhd_serve::http_get_status(admin, "/healthz")
            .unwrap_or_else(|e| fail(&format!("probing {admin}/healthz: {e}")));
        (status, body.trim().to_string())
    });

    if flags.switch("shutdown") {
        let mut client = Client::connect(&addr)
            .unwrap_or_else(|e| fail(&format!("connecting {addr} for shutdown: {e}")));
        match client.shutdown_server(u64::MAX) {
            Ok(Response::Pong { .. }) => {}
            other => eprintln!("loadgen: unexpected shutdown acknowledgement: {other:?}"),
        }
    }

    let mut report = String::new();
    report.push_str("# loadgen — lookhd-serve latency under concurrent load\n");
    report.push_str(&format!(
        "addr {addr}; {requests} {} request(s)/connection, pipeline {pipeline}, \
         rate {}, deadline {} ms, server reactors {reactors_label}\n",
        if feedback { "feedback" } else { "predict" },
        if rate_rps == 0 {
            "unpaced".to_owned()
        } else {
            format!("{rate_rps} req/s")
        },
        deadline.as_millis(),
    ));
    report.push_str(
        "note: loadgen shares the host with the server — throughput is a \
         co-located measurement, not an isolated one\n",
    );
    for p in &points {
        let total = p.connections * requests;
        report.push_str(&format!(
            "connections {}: ok {}/{}, errors {}, dropped {}, id mismatches {}, \
             wall {:.1} ms, throughput {:.0} req/s\n",
            p.connections,
            p.ok,
            total,
            p.errors,
            p.dropped,
            p.mismatches,
            p.wall.as_secs_f64() * 1e3,
            p.throughput_rps(),
        ));
        report.push_str(&format!(
            "latency ms: mean {:.3}  p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}\n",
            ms(p.mean_ns()),
            ms(percentile(&p.latencies_ns, 0.50)),
            ms(percentile(&p.latencies_ns, 0.90)),
            ms(percentile(&p.latencies_ns, 0.99)),
            ms(p.latencies_ns.last().copied().unwrap_or(0)),
        ));
    }
    if traced {
        report.push_str("trace ids: propagated and echo-checked on every request\n");
    }
    if let Some(version) = refreshed_version {
        report.push_str(&format!(
            "model refresh: acknowledged, now serving version {version}\n"
        ));
    }
    if let Some((p50, p95, p99)) = server_request {
        report.push_str(&format!(
            "server request ms, decode to response appended (from /metrics.json): \
             p50 {:.3}  p95 {:.3}  p99 {:.3}\n",
            ms(p50),
            ms(p95),
            ms(p99),
        ));
    }
    if let Some((status, body)) = &server_health {
        report.push_str(&format!("server health (from /healthz): {status} {body}\n"));
    }
    print!("{report}");

    if let Some(bench_path) = &bench_out {
        let n_features = rows.first().map_or(0, Vec::len);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

        // One `runs` entry for this invocation: the server's reactor
        // count (a pass-through label) plus the measured curve.
        let mut run = String::new();
        run.push_str(&format!(
            "    {{\"reactors\": {reactors_label}, \"curve\": [\n"
        ));
        for (i, p) in points.iter().enumerate() {
            run.push_str(&format!(
                "      {{\"connections\": {}, \"ok\": {}, \"errors\": {}, \"dropped\": {}, \
                 \"id_mismatches\": {}, \"throughput_rps\": {:.1}, \
                 \"latency_ns\": {{\"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"max\": {}}}}}{}\n",
                p.connections,
                p.ok,
                p.errors,
                p.dropped,
                p.mismatches,
                p.throughput_rps(),
                p.mean_ns(),
                percentile(&p.latencies_ns, 0.50),
                percentile(&p.latencies_ns, 0.90),
                percentile(&p.latencies_ns, 0.99),
                p.latencies_ns.last().copied().unwrap_or(0),
                if i + 1 == points.len() { "" } else { "," },
            ));
        }
        run.push_str("    ]");
        if let Some((p50, p95, p99)) = server_request {
            run.push_str(&format!(
                ", \"server_request_ns\": {{\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}}}"
            ));
        }
        run.push_str("}\n");

        // The document always ends with the fixed tail below, so append
        // mode can splice a new run in by string surgery — the bench
        // crate deliberately has no JSON parser.
        const TAIL: &str = "  ]\n}\n";
        let existing = bench_append
            .then(|| std::fs::read_to_string(bench_path).ok())
            .flatten();
        let json = match existing {
            Some(doc) => {
                if !doc.contains("\"schema_version\": 3") {
                    fail(&format!(
                        "--bench-append: {bench_path} is not a schema-v3 document"
                    ));
                }
                let Some(head) = doc.strip_suffix(TAIL) else {
                    fail(&format!(
                        "--bench-append: {bench_path} does not end with the v3 tail"
                    ));
                };
                // Closing `}\n` of the previous run entry gains a comma.
                let head = head.strip_suffix('\n').unwrap_or(head).to_owned();
                format!("{head},\n{run}{TAIL}")
            }
            None => {
                let mut json = String::new();
                json.push_str("{\n");
                json.push_str("  \"schema_version\": 3,\n");
                json.push_str("  \"bench\": \"serve_loadgen\",\n");
                json.push_str(&format!(
                    "  \"workload\": {{\"requests_per_connection\": {requests}, \
                     \"pipeline\": {pipeline}, \"rate_rps\": {rate_rps}, \"deadline_ms\": {}, \
                     \"n_features\": {n_features}, \"traced\": {traced}}},\n",
                    deadline.as_millis(),
                ));
                json.push_str(&format!(
                    "  \"host\": {{\"cores\": {cores}, \"loadgen_shares_host\": true}},\n"
                ));
                json.push_str("  \"runs\": [\n");
                json.push_str(&run);
                json.push_str(TAIL);
                json
            }
        };
        match std::fs::write(bench_path, &json) {
            Ok(()) => println!("wrote {bench_path}"),
            Err(e) => fail(&format!("writing {bench_path}: {e}")),
        }
    }

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::File::create(&out_path).and_then(|mut f| f.write_all(report.as_bytes())) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => fail(&format!("writing {out_path}: {e}")),
    }
    let mismatches: usize = points.iter().map(|p| p.mismatches).sum();
    let dropped: usize = points.iter().map(|p| p.dropped).sum();
    if mismatches > 0 {
        fail("response ids did not match requests");
    }
    if dropped > 0 {
        fail(&format!(
            "{dropped} request(s) missed the response deadline"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::{json_field_u64, percentile};

    #[test]
    fn json_field_scan_anchors_to_the_right_span() {
        let doc = r#"{"spans": [
            {"path": "serve/decode", "p50_ns": 11, "p95_ns": 12, "p99_ns": 13},
            {"path": "serve/request", "p50_ns": 21, "p95_ns": 22, "p99_ns": 23}]}"#;
        let anchor = "\"path\": \"serve/request\"";
        assert_eq!(json_field_u64(doc, anchor, "p50_ns"), Some(21));
        assert_eq!(json_field_u64(doc, anchor, "p99_ns"), Some(23));
        assert_eq!(
            json_field_u64(doc, "\"path\": \"serve/decode\"", "p50_ns"),
            Some(11)
        );
        assert_eq!(json_field_u64(doc, anchor, "nope"), None);
        assert_eq!(json_field_u64(doc, "\"path\": \"missing\"", "p50_ns"), None);
    }

    #[test]
    fn percentiles_pin_known_small_arrays() {
        // n=100, values 1..=100: p99 must be the maximum (the regression
        // this pins — nearest-rank returned 99, the second-largest).
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.50), 51); // ceil(0.50·99) = 50
        assert_eq!(percentile(&hundred, 0.90), 91); // ceil(0.90·99) = 90
        assert_eq!(percentile(&hundred, 0.99), 100); // ceil(0.99·99) = 99

        let five = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile(&five, 0.50), 30); // ceil(0.50·4) = 2
        assert_eq!(percentile(&five, 0.90), 50); // ceil(0.90·4) = 4
        assert_eq!(percentile(&five, 0.99), 50);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.50), 7);
        assert_eq!(percentile(&[7], 0.99), 7);
        let two = [3u64, 9];
        assert_eq!(percentile(&two, 0.0), 3);
        assert_eq!(percentile(&two, 0.50), 9); // ceil(0.5·1) = 1
        assert_eq!(percentile(&two, 1.0), 9);
    }
}
