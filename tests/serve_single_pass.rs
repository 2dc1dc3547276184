//! With metrics on, the server scores each request exactly once: the
//! `serve/margin` telemetry is read off the serving pass instead of a
//! second `class_scores` call per request.
//!
//! A SPEECH-shaped model (n = 617, k = 26) serves every test row through
//! the dense kernel (default decorrelated model) and through the score-LUT
//! kernel. Each run checks that every served class equals a direct
//! `Classifier::predict`, that `serve/margin` holds one sample per
//! request summing to the direct `class_scores` top1−top2 margins, and
//! that the kernel's per-query counter (`encode.samples` for dense,
//! `kernel.lut.queries` for the LUT) grew by exactly one per request.
//!
//! This is its own test binary because `obs` counters and spans are
//! process-global; the runs below serialize on one lock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::{CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig};
use lookhd_paper::obs;
use lookhd_paper::serve::server::MARGIN_SCALE;
use lookhd_paper::serve::{self, Client, Request, Response, ServeConfig};

static OBS: Mutex<()> = Mutex::new(());

const DIM: usize = 512;

/// A SPEECH-shaped classifier and its test rows.
fn speech_model(config: LookHdConfig) -> (LookHdClassifier, Vec<Vec<f64>>) {
    let data = App::Speech.profile().generate_small(29);
    let clf = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
        .expect("training failed");
    (clf, data.test.features)
}

/// Top1 − top2 of a score vector, by sorting (independent of the
/// server's one-scan helper).
fn margin(mut scores: Vec<f64>) -> f64 {
    scores.sort_by(|a, b| b.total_cmp(a));
    scores[0] - scores[1]
}

/// Serves every row once, pipelined on one connection, and returns the
/// served classes in row order.
fn serve_rows(clf: LookHdClassifier, rows: &[Vec<f64>]) -> Vec<usize> {
    let handle =
        serve::start("127.0.0.1:0", Arc::new(clf), ServeConfig::new()).expect("bind failed");
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    for (id, features) in (0u64..).zip(rows) {
        client
            .send(&Request::Predict {
                id,
                trace_id: 0,
                features: features.clone(),
            })
            .expect("send failed");
    }
    let mut classes = HashMap::new();
    for _ in rows {
        match client.recv().expect("recv failed") {
            Response::Predict { id, class, .. } => classes.insert(id, class as usize),
            other => panic!("unexpected response {other:?}"),
        };
    }
    handle.shutdown();
    handle.join();
    (0..rows.len() as u64).map(|id| classes[&id]).collect()
}

/// Fits `config` on SPEECH-shaped data, checks it built `kernel`, then
/// serves every test row with metrics on and checks the single pass.
/// Holds the lock throughout: even fitting ticks the global registry.
fn assert_single_pass(config: LookHdConfig, kernel: &str, per_query_counter: &str) {
    let _guard = OBS.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(false);
    let (clf, rows) = speech_model(config);
    assert_eq!(clf.kernel().name(), kernel);
    let rows = &rows[..];
    // Direct references with the registry off, so they tick nothing.
    let expected: Vec<usize> = rows
        .iter()
        .map(|r| clf.predict(r).expect("direct predict"))
        .collect();
    let margin_total_ns: u64 = rows
        .iter()
        .map(|r| {
            let scores = clf.class_scores(r).expect("scores").expect("has scores");
            (margin(scores) * MARGIN_SCALE) as u64
        })
        .sum();

    obs::reset();
    obs::set_enabled(true);
    let served = serve_rows(clf, rows);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let n = rows.len() as u64;
    assert_eq!(
        served, expected,
        "served classes differ from direct predict"
    );
    let margins = snap
        .spans
        .iter()
        .find(|s| s.path == "serve/margin")
        .expect("no serve/margin samples");
    assert_eq!(margins.count, n, "one margin sample per request");
    assert_eq!(margins.total.as_nanos(), u128::from(margin_total_ns));
    assert_eq!(snap.counter("serve.margin_unavailable"), 0);
    assert_eq!(
        snap.counter(per_query_counter),
        n,
        "{per_query_counter}: each request must be scored exactly once"
    );
}

#[test]
fn dense_kernel_serves_margins_from_one_encode_per_request() {
    let config = LookHdConfig::new().with_dim(DIM);
    assert_single_pass(config, "dense", "encode.samples");
}

#[test]
fn lut_kernel_serves_margins_from_one_table_pass_per_request() {
    let config = LookHdConfig::new()
        .with_dim(DIM)
        .with_compression(CompressionConfig::new().with_decorrelate(false))
        .with_kernel(KernelSpec::lut());
    assert_single_pass(config, "lut", "kernel.lut.queries");
}
