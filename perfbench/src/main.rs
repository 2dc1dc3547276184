//! `perfbench` — end-to-end and per-layer benchmark of a SPEECH-shaped
//! LookHD model (n = 617, k = 26, D = 2000) served over loopback TCP.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_lut --seed 1 --seconds 24 --trace 0
//! ```
//!
//! One run generates three datasets from `--seed`, trains a model on
//! each, serves it through `lookhd_serve::start` with `ServeConfig::new()`
//! defaults, drives it from this process's main thread over two
//! connections, probes the write path on a `start_online` server with
//! the last model, checks every answer against direct
//! `Classifier::predict` (or an exact local replay of the online
//! training), and prints the metrics. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` runs the workload once
//! untraced and once traced and prints the per-layer metrics. The last
//! stdout line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. A wrong answer makes the process exit 1, an invalid run
//! exits 3 without a result. `perfbench/README.md` describes the
//! workloads and every metric.

mod alloc_count;
mod drive;
mod layers;
mod load;
mod procfs;
mod syscalls;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use hdc::FitClassifier;
use lookhd::{CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig};
use lookhd_datasets::apps::App;
use lookhd_datasets::data::Dataset;
use lookhd_serve::{OnlineConfig, ServeConfig, ServerHandle};

use drive::{Driven, Load};
use load::{PhaseResult, FAILED};

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The dataset seed of set-up `block` of a run: `--seed` itself for the
/// first, so a traced run (one set-up, on `--seed`) sees the first
/// block's data.
fn block_seed(seed: u64, block: usize) -> u64 {
    seed.wrapping_add((block as u64) << 32)
}
/// Stand-in for +∞ (a failed request) when a percentile lands on one.
const INFINITE_MS: f64 = 1e6;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Score-LUT model, predicts only, telemetry off.
    ServeLut,
    /// Default (decorrelated, dense-kernel) model with the metrics
    /// registry and trace ring on, as `lookhd serve --admin-addr` runs.
    ServeDenseTelemetry,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_lut" => Some(Self::ServeLut),
            "serve_dense_telemetry" => Some(Self::ServeDenseTelemetry),
            _ => None,
        }
    }

    fn model_config(self) -> LookHdConfig {
        match self {
            Self::ServeDenseTelemetry => LookHdConfig::new(),
            Self::ServeLut => LookHdConfig::new()
                .with_compression(CompressionConfig::new().with_decorrelate(false))
                .with_kernel(KernelSpec::auto()),
        }
    }

    fn telemetry(self) -> bool {
        self == Self::ServeDenseTelemetry
    }

    /// Open-loop rate in predicts per second.
    fn open_rate(self) -> f64 {
        match self {
            Self::ServeLut => 5000.0,
            Self::ServeDenseTelemetry => 100.0,
        }
    }

    /// Requests in flight per connection in closed loops and correctness
    /// passes. On both connections together that is several full batches
    /// of 16, so the worker keeps busy while the load thread is briefly
    /// descheduled, and a queue that stays far below the server's 1 s
    /// pickup deadline (~3 ms of LUT work, ~0.15 s of dense work).
    fn window(self) -> usize {
        match self {
            Self::ServeLut => 64,
            Self::ServeDenseTelemetry => 16,
        }
    }

    /// Fresh server instances a run's measurement is split over: 0.8 s
    /// each on `serve_lut`, 1.6 s on `serve_dense_telemetry` at the run
    /// length in `BENCHMARK.json`. A server's threads settle into one
    /// placement on the 2 cores for their lifetime, and the host slows
    /// the whole serving path by up to 2× for seconds at a time, so one
    /// run samples many servers and reports medians over them.
    fn segments(self) -> usize {
        match self {
            Self::ServeLut => 30,
            Self::ServeDenseTelemetry => 15,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: get("--trace")? == "1",
    })
}

/// A trained model and the data it was trained on.
struct Model {
    data: Dataset,
    clf: Arc<LookHdClassifier>,
}

/// Starts a server for `clf` on an ephemeral loopback port.
fn start_server(clf: &Arc<LookHdClassifier>) -> Result<ServerHandle, String> {
    let _span = obs::span("bench_start");
    lookhd_serve::start("127.0.0.1:0", clf.clone(), ServeConfig::new())
        .map_err(|e| format!("starting the server: {e}"))
}

/// Starts an online-training server (manual refresh only) on a copy of
/// `clf`.
fn start_online_server(clf: &LookHdClassifier) -> Result<ServerHandle, String> {
    let _span = obs::span("bench_start");
    lookhd_serve::start_online(
        "127.0.0.1:0",
        clf.clone(),
        ServeConfig::new(),
        OnlineConfig::new(),
    )
    .map_err(|e| format!("starting the online server: {e}"))
}

/// One set-up: dataset generation + fit (kernel build included) + server
/// start, timed. Returns the model and the set-up seconds; the server is
/// stopped again, since measurements use fresh ones. With `traced`, the
/// metrics registry and trace ring are on before fit; the telemetry
/// workload turns them on after fit, before the server starts, as
/// `lookhd serve --admin-addr` does.
fn set_up(workload: Workload, seed: u64, traced: bool) -> Result<(Model, f64), String> {
    obs::set_enabled(traced);
    obs::trace::set_enabled(traced);
    let started = Instant::now();
    let data = {
        let _span = obs::span("bench_generate");
        App::Speech.profile().generate(seed)
    };
    let clf = {
        let _span = obs::span("bench_fit");
        LookHdClassifier::fit(
            &workload.model_config(),
            &data.train.features,
            &data.train.labels,
        )
        .map_err(|e| format!("fit: {e}"))?
    };
    let clf = Arc::new(clf);
    if workload.telemetry() {
        obs::set_enabled(true);
        obs::trace::set_enabled(true);
    }
    let handle = start_server(&clf)?;
    let setup_s = started.elapsed().as_secs_f64();
    handle.shutdown();
    handle.join();
    Ok((Model { data, clf }, setup_s))
}

/// Ceil-rank percentile of a sample (the convention `loadgen` and `obs`
/// use); `None` when empty.
fn percentile(values: &[u64], p: f64) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (p * (sorted.len() - 1) as f64).ceil() as usize;
    Some(sorted[rank.min(sorted.len() - 1)])
}

fn ns_to_ms(ns: u64) -> f64 {
    if ns == FAILED {
        INFINITE_MS
    } else {
        ns as f64 / 1e6
    }
}

fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Named metrics in print order, with the sample count behind each.
#[derive(Default)]
struct Metrics {
    entries: Vec<(String, f64, &'static str, Option<usize>)>,
    notes: Vec<String>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_owned(), value, unit, None));
    }

    fn put_n(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.entries
            .push((name.to_owned(), value, unit, Some(samples)));
    }

    fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.0 == name)
            .map_or(0.0, |e| e.1)
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// Operation totals across every phase of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
}

impl Tally {
    fn add(&mut self, phase: &str, res: &PhaseResult) {
        self.attempted += res.attempted;
        self.failed += res.failed;
        self.wrong += res.wrong;
        for note in &res.notes {
            self.notes.push(format!("{phase}: {note}"));
        }
    }

    fn wrong(&mut self, note: String) {
        self.wrong += 1;
        self.failed += 1;
        self.notes.push(note);
    }
}

fn run_end_to_end(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let steal_before = procfs::cpu_steal();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut d = Driven::default();
    let n = args.workload.segments();
    // The segments are spread over the set-ups, a third after each, so a
    // run samples the host's speed, which drifts over tens of seconds,
    // across its whole length. Each block trains on a dataset of its own
    // (see `block_seed`), so accuracy and the latency medians average
    // over three datasets: accuracy on one 520-row test split moves by a
    // few percent from seed to seed. Each model is dropped before the
    // next set-up, so peak memory is one model's.
    for i in 0..SETUPS {
        let (model, setup_s) = set_up(args.workload, block_seed(args.seed, i), false)?;
        setups.push(setup_s);
        let expected = drive::direct_predictions(&model.clf, &model.data.test.features)?;
        let load = Load {
            workload: args.workload,
            seconds: args.seconds,
            traced: false,
            expected: &expected,
        };
        d.measure(
            &load,
            &model,
            i * n / SETUPS..(i + 1) * n / SETUPS,
            tally,
            &mut |_| {},
        )?;
        d.pass(&load, &model, tally)?;
        if i + 1 == SETUPS {
            d.probe(&load, &model, tally)?;
        }
    }
    m.put_n("setup_s", median_f64(&mut setups), "s", SETUPS);
    let steal = procfs::steal_pct(steal_before, procfs::cpu_steal());
    let latency = drive::open_latency(&d)?;
    m.put_n("latency_p50_ms", latency.p50_ms, "ms", latency.samples);
    m.put_n("accuracy", d.accuracy(), "fraction", d.pass_answers);
    m.put("rss_mb", procfs::peak_rss_mib(), "MiB");
    // Printed for reading, left out of the result: on the shared 2-core
    // host these swing by a quarter to several-fold between runs of the
    // same code. Closed-loop throughput on `serve_lut` follows the host's
    // speed for syscall-heavy work, which moved it between 30k and 100k
    // req/s within an hour; the tails follow the host's millisecond
    // hiccups; a materialize (memory-bound) takes 0.75-1.5 s within one
    // run.
    let feedback = percentile(&d.feedback_ns, 0.99).map_or(0.0, ns_to_ms);
    m.note(format!(
        "throughput_rps = {} req/s (n={}); \
         latency_p90_ms = {} ms, latency_p99_ms = {} ms (n={}); \
         feedback_p99_ms = {feedback} ms (n={}); refresh_ms = {} ms (n={})",
        d.throughput(),
        d.closed_answers(),
        latency.p90_ms,
        latency.p99_ms,
        latency.samples,
        d.feedback_ns.len(),
        d.refresh_ms(),
        d.refresh_ns.len()
    ));
    let lags = d.lags();
    let q = |p| percentile(&lags, p).unwrap_or(0) as f64 / 1e3;
    m.note(format!(
        "generator lag p50 {:.1} / p90 {:.1} / p99 {:.1} / max {:.1} us over {} requests; \
         {} of {} segments valid; host steal {steal:.2}%",
        q(0.5),
        q(0.9),
        q(0.99),
        q(1.0),
        lags.len(),
        latency.valid_segments,
        d.segments.len(),
    ));
    Ok(m)
}

fn print_result(m: &Metrics, tally: &Tally) {
    for note in m.notes.iter().chain(&tally.notes) {
        println!("# {note}");
    }
    for (name, value, unit, samples) in &m.entries {
        match samples {
            Some(n) => println!("{name} = {value} {unit} (n={n})"),
            None => println!("{name} = {value} {unit}"),
        }
    }
    println!("attempted = {}, failed = {}", tally.attempted, tally.failed);
    let metrics: Vec<String> = m
        .entries
        .iter()
        .map(|(name, value, unit, _)| {
            let value = if value.is_finite() {
                *value
            } else {
                INFINITE_MS
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_lut|serve_dense_telemetry \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // The main thread generates the load: its allocations and syscalls
    // are not the server's.
    alloc_count::exclude_current_thread();
    syscalls::init();
    let mut tally = Tally::default();
    let result = if args.trace {
        layers::run_traced(&args, &mut tally)
    } else {
        run_end_to_end(&args, &mut tally)
    };
    match result {
        Ok(metrics) => {
            print_result(&metrics, &tally);
            if tally.wrong > 0 {
                eprintln!("perfbench: {} wrong answers", tally.wrong);
                return ExitCode::from(1);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            for note in &tally.notes {
                eprintln!("# {note}");
            }
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}
