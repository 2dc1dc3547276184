//! `lookhd` — train, evaluate, and deploy LookHD classifiers from the
//! command line.
//!
//! ```text
//! lookhd train    --data train.csv --out model.lks [--dim 2000 --q 4 --r 5
//!                 --epochs 10 --linear --group 12 --seed 42
//!                 --kernel auto|dense|lut]
//! lookhd evaluate --model model.lks --data test.csv
//! lookhd predict  --model model.lks --data queries.csv
//! lookhd info     --model model.lks [--kernel KIND]
//! lookhd inspect  --data data.csv
//! lookhd estimate --model model.lks [--samples 1000]
//! lookhd serve    --model model.lks [--addr 127.0.0.1:4100 --reactors 1
//!                 --max-conns 8192 --admin-addr 127.0.0.1:4101
//!                 --metrics-interval 1000 --slo-p99-ms 5
//!                 --slo-error-rate 0.01 --kernel KIND --online
//!                 --queue-cap 1024 --refresh-after N --drift-threshold F]
//! ```
//!
//! CSV rows are `feature,…,feature,label` (labels in the final column;
//! `predict` takes label-free rows). An optional header line is skipped.
//! A flag a subcommand does not read is an error, not a silent no-op.
//!
//! `--metrics out.json` (valid on every subcommand) enables the
//! observability registry for the run and writes one JSON document of
//! timing spans and counters when the command finishes.
//!
//! `--admin-addr HOST:PORT` (serve only) binds a second, HTTP listener
//! with live telemetry: `/metrics.json` (windowed snapshot JSON),
//! `/metrics` (Prometheus text with dimensional labels and OpenMetrics
//! tail exemplars), `/trace.json` (Chrome trace-event export of the
//! per-request trace ring), `/healthz` (SLO-aware readiness: `503` plus
//! a reason while draining, in sustained admission shed, or burning a
//! declared objective), and `/slo.json` (burn-rate detail). It enables
//! the metrics registry and the trace ring for the server's lifetime.
//! `--slo-p99-ms F` / `--slo-error-rate F` declare the objectives.
//!
//! `--metrics-interval MS` (serve only, requires `--metrics`) rewrites
//! the metrics file every `MS` milliseconds, atomically, so a crashed or
//! killed server still leaves a recent snapshot behind.
//!
//! `--kernel {auto,dense,lut}` selects the scoring kernel. On `train` it
//! is built at fit time and the artifact records which kernel serves;
//! loading rebuilds the score-LUT's tables from the model, so they are
//! never stored. On `info` and `serve` it rebuilds the kernel of the
//! loaded `LKS1` artifact without retraining (`serve`, like every
//! subcommand that reads a model, loads `LKS1` classifiers only). `auto`
//! tries the score-LUT and falls back to dense when its tables are over
//! the 64 MiB budget or out of integer bound; `lut` (exact precomputed
//! tables) is a hard request that fails when the model cannot satisfy
//! it. Every kind trains the same decorrelated model.

mod args;

use std::fs;
use std::io::Write;
use std::process::ExitCode;

use args::Args;
use hdc::quantize::Quantization;
use hdc::{Classifier, FitClassifier};
use lookhd::{CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig};
use lookhd_datasets::csv;
use lookhd_hwsim::fpga::FpgaPhase;
use lookhd_hwsim::{CpuModel, FpgaModel, WorkloadShape};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a line, tolerating a closed pipe (e.g. `lookhd info | head`).
fn out(line: impl std::fmt::Display) {
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    let _ = writeln!(lock, "{line}");
}

/// The value flags and the switches `subcommand` reads, space-separated;
/// anything else on its command line is an error rather than a silent
/// no-op. `--metrics FILE` is valid everywhere.
fn flags_read_by(subcommand: &str) -> Option<(&'static str, &'static str)> {
    Some(match subcommand {
        "train" => ("data out dim q r epochs group seed kernel", "linear"),
        "evaluate" | "predict" => ("model data", ""),
        "info" => ("model kernel", ""),
        "inspect" => ("data", ""),
        "estimate" => ("model samples", ""),
        "serve" => (
            "model addr reactors max-conns queue-cap admin-addr metrics-interval \
             slo-p99-ms slo-error-rate kernel refresh-after drift-threshold",
            "online",
        ),
        _ => return None,
    })
}

/// Rejects every flag `subcommand` does not read, naming it.
fn check_flags(args: &Args, subcommand: &str) -> Result<(), String> {
    // Removed in favour of --kernel: point at the replacement instead
    // of reporting a plain unknown flag.
    if args.switch("score-lut") {
        return Err("--score-lut was removed; use --kernel auto (or lut)".to_owned());
    }
    let Some((values, switches)) = flags_read_by(subcommand) else {
        return Ok(());
    };
    let values: Vec<&str> = values.split_whitespace().chain(["metrics"]).collect();
    let switches: Vec<&str> = switches.split_whitespace().collect();
    args.check(&values, &switches)
        .map_err(|e| format!("{e} (`lookhd {subcommand}` does not read it)\n\n{USAGE}"))
}

fn run(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw).map_err(|e| e.to_string())?;
    if let Some(subcommand) = args.subcommand() {
        check_flags(&args, subcommand)?;
    }
    let metrics_path = args.get("metrics").map(str::to_owned);
    if metrics_path.is_some() {
        obs::set_enabled(true);
    }
    let result = match args.subcommand() {
        Some("train") => train(&args),
        Some("evaluate") => evaluate(&args),
        Some("predict") => predict(&args),
        Some("info") => info(&args),
        Some("inspect") => inspect(&args),
        Some("estimate") => estimate(&args),
        Some("serve") => serve(&args),
        Some(other) => Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
        None => {
            out(USAGE);
            Ok(())
        }
    };
    if let Some(path) = metrics_path {
        // Write whatever was recorded even when the command failed — a
        // partial trace is exactly what you want when diagnosing the
        // failure. The command's own error still wins.
        let json = obs::snapshot().to_json();
        let write_result =
            fs::write(&path, json).map_err(|e| format!("writing metrics to {path}: {e}"));
        result.and(write_result)
    } else {
        result
    }
}

const USAGE: &str = "usage:
  lookhd train    --data train.csv --out model.lks [--dim N --q N --r N
                  --epochs N --linear --group N --seed N
                  --kernel auto|dense|lut]
  lookhd evaluate --model model.lks --data test.csv
  lookhd predict  --model model.lks --data queries.csv
  lookhd info     --model model.lks [--kernel KIND]
  lookhd inspect  --data data.csv
  lookhd estimate --model model.lks [--samples N]
  lookhd serve    --model model.lks [--addr HOST:PORT --reactors N
                  --max-conns N --admin-addr HOST:PORT --metrics-interval MS
                  --slo-p99-ms F --slo-error-rate F --kernel KIND
                  --online --queue-cap N --refresh-after N
                  --drift-threshold F]

A flag a subcommand does not read is an error.
--kernel selects the scoring kernel: auto (score-LUT with dense fallback),
dense (exact reference), lut (exact precomputed tables, at most 64 MiB).
On train it is built and the artifact records it (loading rebuilds the
tables); on info/serve it rebuilds the kernel of a loaded LKS1 artifact
without retraining.
--reactors N (serve) sets the event-loop thread count: each reactor reads,
scores and answers the requests of its own connections; --max-conns N
caps concurrently open connections (excess connects get one Overloaded
frame and are closed).
--metrics out.json (any subcommand) records per-stage timing spans and
counters and writes one JSON document when the command finishes.
--admin-addr (serve) adds a live-telemetry HTTP listener: /metrics.json,
/metrics (Prometheus with dimensional labels + OpenMetrics exemplars),
/trace.json (Chrome trace events), /healthz (503 + reason while
draining, in sustained admission shed, or burning a declared SLO),
/slo.json (targets, windowed measurements, burn rates).
--slo-p99-ms F / --slo-error-rate F (serve, with --admin-addr) declare
the p99 latency (ms) and error-rate (0..1) objectives /healthz judges
with multi-window (10 s + 60 s) burn rates.
--metrics-interval MS (serve, with --metrics) rewrites the metrics file
atomically every MS milliseconds so a killed server keeps its data.
--online (serve) folds LHF1 feedback frames into live training counters
on a dedicated trainer thread; a refresh frame materializes and
hot-swaps a new model version without dropping traffic.
--queue-cap N (with --online, default 1024) bounds the trainer's queue;
feedback past it is answered Overloaded.
--refresh-after N (with --online) arms the automatic refresh once N
feedback folds have accumulated since the last swap (0 = manual only);
--drift-threshold F (default 0.25) additionally requires the served-vs-
observed class distributions to diverge by at least F (half L1, 0..1).";

fn load_classifier(args: &Args) -> Result<LookHdClassifier, String> {
    let path = args.require("model").map_err(|e| e.to_string())?;
    let bytes = fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    LookHdClassifier::from_bytes(&bytes).map_err(|e| format!("loading {path}: {e}"))
}

/// Kernel selection from `--kernel {auto,dense,lut}`; `None` when the
/// flag is absent.
fn kernel_spec(args: &Args) -> Result<Option<KernelSpec>, String> {
    args.get("kernel")
        .map(|raw| raw.parse::<KernelSpec>().map_err(|e| e.to_string()))
        .transpose()
}

/// One human-readable line describing a classifier's active kernel
/// (both kernels score exactly).
fn kernel_line(clf: &LookHdClassifier) -> String {
    let kernel = clf.kernel();
    format!(
        "{} (exact; {})",
        kernel.name(),
        kernel.describe(clf.compressed())
    )
}

fn train(args: &Args) -> Result<(), String> {
    let data_path = args.require("data").map_err(|e| e.to_string())?;
    let out_path = args.require("out").map_err(|e| e.to_string())?;
    let split = csv::load_split(data_path).map_err(|e| format!("{data_path}: {e}"))?;
    let dim = args.get_or("dim", 2000usize).map_err(|e| e.to_string())?;
    let q = args.get_or("q", 4usize).map_err(|e| e.to_string())?;
    let r = args.get_or("r", 5usize).map_err(|e| e.to_string())?;
    let epochs = args.get_or("epochs", 10usize).map_err(|e| e.to_string())?;
    let group = args.get_or("group", 12usize).map_err(|e| e.to_string())?;
    let seed = args
        .get_or("seed", 0x10_0c_4du64)
        .map_err(|e| e.to_string())?;
    let kernel = kernel_spec(args)?;
    let compression = CompressionConfig::new().with_max_classes_per_vector(group.max(1));
    let mut config = LookHdConfig::new()
        .with_dim(dim)
        .with_q(q)
        .with_r(r)
        .with_retrain_epochs(epochs)
        .with_compression(compression)
        .with_seed(seed)
        .with_kernel(kernel.unwrap_or_default());
    if args.switch("linear") {
        config = config.with_quantization(Quantization::Linear);
    }
    let clf = LookHdClassifier::fit(&config, &split.features, &split.labels)
        .map_err(|e| format!("training: {e}"))?;
    let train_acc = clf
        .evaluate(&split.features, &split.labels)
        .map_err(|e| format!("scoring: {e}"))?;
    let bytes = clf.to_bytes().map_err(|e| format!("serializing: {e}"))?;
    fs::write(out_path, &bytes).map_err(|e| format!("writing {out_path}: {e}"))?;
    out(format!(
        "trained on {} samples ({} features, {} classes): train accuracy {:.1}%",
        split.len(),
        split.features[0].len(),
        clf.compressed().n_classes(),
        train_acc * 100.0
    ));
    out(format!(
        "saved {out_path} ({} bytes; {} combined vector(s), retrained {} epoch(s))",
        bytes.len(),
        clf.compressed().n_vectors(),
        clf.report().epochs_run()
    ));
    if let Some(requested) = kernel {
        let active = clf.kernel();
        if requested == KernelSpec::Auto && active.name() == "dense" {
            out("kernel: auto fell back to the dense path (tables over budget or out of bound)");
        } else {
            out(format!("kernel: {}", kernel_line(&clf)));
        }
    }
    Ok(())
}

fn evaluate(args: &Args) -> Result<(), String> {
    let clf = load_classifier(args)?;
    let data_path = args.require("data").map_err(|e| e.to_string())?;
    let split = csv::load_split(data_path).map_err(|e| format!("{data_path}: {e}"))?;
    let compressed = clf
        .predict_batch(&split.features)
        .map_err(|e| e.to_string())?;
    let uncompressed = clf
        .predict_batch_uncompressed(&split.features)
        .map_err(|e| e.to_string())?;
    let hits = |preds: &[usize]| {
        preds
            .iter()
            .zip(&split.labels)
            .filter(|(p, y)| p == y)
            .count()
    };
    let n = split.len() as f64;
    out(format!(
        "accuracy over {} samples: {:.1}% compressed, {:.1}% uncompressed",
        split.len(),
        100.0 * hits(&compressed) as f64 / n,
        100.0 * hits(&uncompressed) as f64 / n
    ));
    Ok(())
}

fn predict(args: &Args) -> Result<(), String> {
    let clf = load_classifier(args)?;
    let data_path = args.require("data").map_err(|e| e.to_string())?;
    let rows = csv::load_features(data_path).map_err(|e| format!("{data_path}: {e}"))?;
    for class in clf.predict_batch(&rows).map_err(|e| e.to_string())? {
        out(class);
    }
    Ok(())
}

fn info(args: &Args) -> Result<(), String> {
    let mut clf = load_classifier(args)?;
    if let Some(spec) = kernel_spec(args)? {
        // Inspect what a different kernel would look like on this model
        // (rebuilt in place, nothing persisted).
        clf.set_kernel(&spec)
            .map_err(|e| format!("rebuilding kernel: {e}"))?;
    }
    let layout = clf.encoder().layout();
    out("LookHD classifier:");
    out(format!("  features (n):        {}", layout.n_features()));
    out(format!(
        "  classes (k):         {}",
        clf.compressed().n_classes()
    ));
    out(format!("  dimensionality (D):  {}", clf.model().dim()));
    out(format!(
        "  quantization (q):    {} ({:?})",
        layout.q(),
        clf.encoder().quantizer().kind()
    ));
    out(format!(
        "  chunk size (r):      {} ({} chunks)",
        layout.r(),
        layout.n_chunks()
    ));
    out(format!(
        "  model size:          {} B compressed ({} vectors) / {} B uncompressed",
        clf.compressed().size_bytes(),
        clf.compressed().n_vectors(),
        clf.model().size_bytes()
    ));
    out(format!("  kernel:              {}", kernel_line(&clf)));
    out(format!(
        "  class correlation:   {:.3}",
        clf.model().class_correlation()
    ));
    Ok(())
}

fn inspect(args: &Args) -> Result<(), String> {
    let data_path = args.require("data").map_err(|e| e.to_string())?;
    let split = csv::load_split(data_path).map_err(|e| format!("{data_path}: {e}"))?;
    let summary = lookhd_datasets::summary::summarize(&split)
        .ok_or_else(|| "dataset is empty or ragged".to_owned())?;
    out(format!("dataset: {data_path}"));
    out(format!("  samples:        {}", summary.n_samples));
    out(format!("  features (n):   {}", summary.n_features));
    out(format!("  classes (k):    {}", summary.n_classes));
    out(format!("  class counts:   {:?}", summary.class_counts));
    out(format!("  imbalance:      {:.2}x", summary.imbalance()));
    out(format!(
        "  feature range:  [{:.4}, {:.4}], mean {:.4}",
        summary.min, summary.max, summary.mean
    ));
    out(format!(
        "  marginal skew:  {:+.2} ({})",
        summary.skew_indicator,
        if summary.is_skewed() {
            "skewed — equalized quantization recommended"
        } else {
            "roughly symmetric"
        }
    ));
    let hint = lookhd_datasets::summary::suggest_config(&summary);
    out(format!(
        "  suggested:      --q {} --r {} --dim {}{}",
        hint.q,
        hint.r,
        hint.dim,
        if hint.equalized {
            " (equalized quantization, the default)"
        } else {
            " --linear"
        }
    ));
    Ok(())
}

/// Serves a persisted `LKS1` classifier over TCP until a shutdown frame
/// arrives (e.g. `loadgen --shutdown`).
fn serve(args: &Args) -> Result<(), String> {
    let mut clf = load_classifier(args)?;
    if let Some(spec) = kernel_spec(args)? {
        clf.set_kernel(&spec)
            .map_err(|e| format!("rebuilding kernel: {e}"))?;
    }
    let online = args.switch("online");
    let addr = args.get("addr").unwrap_or("127.0.0.1:4100");
    let queue_cap = args
        .get_or("queue-cap", 1024usize)
        .map_err(|e| e.to_string())?;
    let reactors = args.get_or("reactors", 1usize).map_err(|e| e.to_string())?;
    let max_conns = args
        .get_or("max-conns", 8192usize)
        .map_err(|e| e.to_string())?;
    let admin_addr = args.get("admin-addr").map(str::to_owned);
    let metrics_interval_ms = args
        .get_or("metrics-interval", 0u64)
        .map_err(|e| e.to_string())?;
    let refresh_after = args
        .get_or("refresh-after", 0usize)
        .map_err(|e| e.to_string())?;
    let drift_threshold = args
        .get_or("drift-threshold", 0.25f64)
        .map_err(|e| e.to_string())?;
    if !online
        && (refresh_after != 0
            || args.get("drift-threshold").is_some()
            || args.get("queue-cap").is_some())
    {
        return Err(
            "--queue-cap/--refresh-after/--drift-threshold require --online \
             (--queue-cap bounds the trainer queue)"
                .to_owned(),
        );
    }
    let slo_p99_ms = args.get("slo-p99-ms");
    let slo_error_rate = args.get("slo-error-rate");
    if (slo_p99_ms.is_some() || slo_error_rate.is_some()) && admin_addr.is_none() {
        return Err(
            "--slo-p99-ms/--slo-error-rate require --admin-addr (they gate /healthz and /slo.json)"
                .to_owned(),
        );
    }
    let mut slo = lookhd_serve::SloConfig::new();
    if slo_p99_ms.is_some() {
        slo = slo.with_p99_ms(
            args.get_or("slo-p99-ms", 0.0f64)
                .map_err(|e| e.to_string())?,
        );
    }
    if slo_error_rate.is_some() {
        slo = slo.with_error_rate(
            args.get_or("slo-error-rate", 0.0f64)
                .map_err(|e| e.to_string())?,
        );
    }
    let config = lookhd_serve::ServeConfig::new()
        .with_reactors(reactors)
        .with_max_conns(max_conns)
        .with_slo(slo);

    // The admin endpoint is only useful with live data behind it: enable
    // the metrics registry and the trace ring before the server starts,
    // so its pre-interned dimensional handles (reactor/model version
    // labels) record from the first request. The listener itself
    // binds after the server: it carries the server's health state.
    if admin_addr.is_some() {
        obs::set_enabled(true);
        obs::trace::set_enabled(true);
    }
    // The periodic flusher needs a file to flush to: it rides --metrics.
    let flusher = match (args.get("metrics"), metrics_interval_ms) {
        (Some(path), ms) if ms > 0 => Some(lookhd_serve::MetricsFlusher::start(
            std::path::PathBuf::from(path),
            std::time::Duration::from_millis(ms),
        )),
        (None, ms) if ms > 0 => {
            return Err("--metrics-interval requires --metrics FILE".to_owned());
        }
        _ => None,
    };

    let n_classes = clf.num_classes();
    let handle = if online {
        let online_config = lookhd_serve::OnlineConfig::new()
            .with_queue_cap(queue_cap)
            .with_auto_refresh_min_folds(refresh_after)
            .with_drift_threshold(drift_threshold);
        lookhd_serve::start_online(addr, clf, config, online_config)
    } else {
        lookhd_serve::start(addr, std::sync::Arc::new(clf), config)
    }
    .map_err(|e| format!("binding {addr}: {e}"))?;
    let admin = match &admin_addr {
        Some(admin_addr) => {
            let options = lookhd_serve::AdminOptions::new().with_health(handle.health());
            match lookhd_serve::start_admin_with(admin_addr.as_str(), options) {
                Ok(admin) => Some(admin),
                Err(e) => {
                    // A serve command that cannot expose the telemetry it
                    // was asked for must not keep serving silently.
                    handle.shutdown();
                    handle.join();
                    return Err(format!("binding admin {admin_addr}: {e}"));
                }
            }
        }
        None => None,
    };
    let online_label = if online {
        let gate = if refresh_after == 0 {
            "manual refresh only".to_owned()
        } else {
            format!("auto-refresh after {refresh_after} folds, drift ≥ {drift_threshold}")
        };
        format!("; online training on ({gate}, queue cap {queue_cap})")
    } else {
        String::new()
    };
    out(format!(
        "serving on {} ({} classes; reactors {reactors}, max conns {max_conns}{online_label})",
        handle.addr(),
        n_classes,
    ));
    if let Some(admin) = &admin {
        out(format!(
            "admin on {} (/metrics.json /metrics /trace.json /healthz /slo.json)",
            admin.addr()
        ));
    }
    out("send a shutdown frame (e.g. loadgen --shutdown) to stop");
    handle.join();
    if let Some(admin) = admin {
        admin.shutdown();
        admin.join();
    }
    if let Some(flusher) = flusher {
        flusher
            .stop()
            .map_err(|e| format!("final metrics flush: {e}"))?;
    }
    out("server drained and stopped");
    Ok(())
}

fn estimate(args: &Args) -> Result<(), String> {
    let clf = load_classifier(args)?;
    let samples = args
        .get_or("samples", 1000usize)
        .map_err(|e| e.to_string())?;
    let layout = clf.encoder().layout();
    let shape = WorkloadShape {
        n_features: layout.n_features(),
        q: layout.q(),
        dim: clf.model().dim(),
        n_classes: clf.compressed().n_classes(),
        r: layout.r(),
        max_classes_per_vector: clf.compressed().compression_config().max_classes_per_vector,
        train_samples: samples,
        retrain_epochs: 0,
        avg_updates_per_epoch: 0,
    };
    let cpu = CpuModel::cortex_a53();
    let fpga = FpgaModel::kc705();
    out("estimated deployment cost (structural models, see DESIGN.md):");
    out(format!(
        "  per query  — ARM A53: {}   KC705 FPGA: {}",
        cpu.execute(&shape.lookhd_inference()),
        fpga.execute_as(&shape.lookhd_inference(), FpgaPhase::LookHdInference)
    ));
    out(format!(
        "  initial training ({samples} samples) — ARM A53: {}   KC705 FPGA: {}",
        cpu.execute(&shape.lookhd_initial_training()),
        fpga.initial_training_cost(&shape, FpgaPhase::LookHdTraining)
    ));
    out(format!(
        "  chunk tables fit KC705 BRAM: {}",
        if fpga.tables_fit(&shape) { "yes" } else { "NO" }
    ));
    Ok(())
}
