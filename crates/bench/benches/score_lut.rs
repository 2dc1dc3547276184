//! Criterion microbench: the two exact scoring kernels (dense and
//! score-LUT) on the Table-I SPEECH profile (n = 617 features, k = 26
//! classes, q = 4, r = 5, D = 2000), trained on the profile's generated
//! train split.
//!
//! Both models are trained identically (decorrelation off) and predict
//! bit-identically. A third arm serves the default decorrelated model
//! through the score-LUT, whose tables carry the whitening projection as
//! one more column per row.
//!
//! The single-query arms rotate over [`DISTINCT`] distinct test rows,
//! one per timed call, as served traffic does: a query's table rows are
//! not still cached from the previous call. The `*_warm_ns` arms re-score
//! one query, so its rows stay cached; they are the kernel's best case,
//! not its serving cost.
//!
//! Besides the per-function criterion report, the bench self-times the
//! same operations and writes a schema-versioned perf-trajectory record
//! to `BENCH_score_lut.json` at the repo root (override with
//! `LOOKHD_BENCH_OUT`), so future PRs can diff medians/percentiles
//! against this baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use hdc::{Classifier, FitClassifier};
use lookhd::{CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig};
use lookhd_datasets::apps::App;

const N_FEATURES: usize = 617;
const N_CLASSES: usize = 26;
/// Distinct queries the single-query arms rotate over (one per timed
/// call).
const DISTINCT: usize = 512;
/// Queries per batch-arm call.
const BATCH: usize = 64;

/// The SPEECH profile's generated train split and [`DISTINCT`] of its
/// test rows as queries.
fn dataset() -> (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>) {
    let data = App::Speech.profile().generate(617);
    assert_eq!(
        (data.n_features, data.n_classes),
        (N_FEATURES, N_CLASSES),
        "the SPEECH profile changed shape"
    );
    assert!(data.test.features.len() >= DISTINCT, "too few test rows");
    let mut queries = data.test.features;
    queries.truncate(DISTINCT);
    (data.train.features, data.train.labels, queries)
}

/// Hands out the next query of the rotation on every call.
fn rotating<'q>(queries: &'q [Vec<f64>]) -> impl FnMut() -> &'q [f64] {
    let mut next = 0;
    move || {
        let q: &'q [f64] = &queries[next % queries.len()];
        next += 1;
        q
    }
}

fn bench_score_lut(c: &mut Criterion) {
    let (xs, ys, queries) = dataset();
    let batch = &queries[..BATCH];
    // Retraining and validation are inference-irrelevant; keep training
    // cheap so the bench starts quickly.
    let base = LookHdConfig::new()
        .with_retrain_epochs(0)
        .with_validation_fraction(0.0)
        .with_compression(CompressionConfig::new().with_decorrelate(false));
    let dense = LookHdClassifier::fit(&base, &xs, &ys).expect("dense training failed");
    let fast = LookHdClassifier::fit(&base.clone().with_kernel(KernelSpec::auto()), &xs, &ys)
        .expect("lut training failed");
    let lut = fast.score_lut().expect("kernel should have been built");
    eprintln!(
        "score-LUT tables: {} chunks x {} columns = {} MiB",
        lut.n_chunks(),
        lut.n_columns(),
        lut.size_bytes() >> 20
    );
    // The default (decorrelated) compression behind the score-LUT.
    let whitened_config = LookHdConfig::new()
        .with_retrain_epochs(0)
        .with_validation_fraction(0.0)
        .with_kernel(KernelSpec::auto());
    let whitened =
        LookHdClassifier::fit(&whitened_config, &xs, &ys).expect("whitened training failed");
    let whitened_lut = whitened.score_lut().expect("kernel should have been built");
    assert_eq!(whitened_lut.n_columns(), N_CLASSES + 1, "projection column");
    let mut whitened_dense = whitened.clone();
    whitened_dense
        .set_kernel(&KernelSpec::dense())
        .expect("dense kernel");
    // Differential sanity before timing anything: dense and LUT are exact
    // siblings, whitened or not.
    for q in &queries {
        assert_eq!(
            fast.predict(q).unwrap(),
            dense.predict(q).unwrap(),
            "kernel diverged from dense path"
        );
        assert_eq!(
            whitened.scores(q).unwrap(),
            whitened_dense.scores(q).unwrap(),
            "whitened kernel diverged from dense path"
        );
    }

    let mut group = c.benchmark_group("score_lut_table1_speech");
    group.sample_size(20);
    let mut next = rotating(&queries);
    group.bench_function("dense_predict_1", |b| {
        b.iter(|| dense.predict(black_box(next())).unwrap())
    });
    let mut next = rotating(&queries);
    group.bench_function("lut_predict_1", |b| {
        b.iter(|| fast.predict(black_box(next())).unwrap())
    });
    let mut next = rotating(&queries);
    group.bench_function("lut_whitened_predict_1", |b| {
        b.iter(|| whitened.predict(black_box(next())).unwrap())
    });
    group.bench_function("dense_predict_1_warm", |b| {
        b.iter(|| dense.predict(black_box(&queries[0])).unwrap())
    });
    group.bench_function("lut_predict_1_warm", |b| {
        b.iter(|| fast.predict(black_box(&queries[0])).unwrap())
    });
    group.bench_function("dense_predict_batch_64", |b| {
        b.iter(|| dense.predict_batch(black_box(batch)).unwrap())
    });
    group.bench_function("lut_predict_batch_64", |b| {
        b.iter(|| fast.predict_batch(black_box(batch)).unwrap())
    });
    group.finish();

    write_bench_json(&dense, &fast, &whitened, &queries);
}

/// Timed nanosecond samples for one closure: short warm-up, then `n`
/// wall-clock samples.
fn sample_ns(n: usize, f: &mut dyn FnMut()) -> Vec<u64> {
    for _ in 0..(n / 10).max(3) {
        f();
    }
    (0..n)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Renders `{"min": .., "mean": .., "p50": .., "p90": .., "p99": .., "max": ..}`
/// from raw nanosecond samples.
fn stats_json(mut samples: Vec<u64>) -> String {
    samples.sort_unstable();
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    let mean = samples.iter().sum::<u64>() / samples.len() as u64;
    format!(
        "{{\"min\": {}, \"mean\": {mean}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
        samples[0],
        pct(0.50),
        pct(0.90),
        pct(0.99),
        samples[samples.len() - 1]
    )
}

/// Self-times the benched operations for every kernel and writes the
/// perf-trajectory record (separate from criterion's console report,
/// whose samples are not exposed by the vendored stub).
fn write_bench_json(
    dense: &LookHdClassifier,
    fast: &LookHdClassifier,
    whitened: &LookHdClassifier,
    queries: &[Vec<f64>],
) {
    /// Samples per single-query arm: one distinct query each in the
    /// rotating arms.
    const SAMPLES: usize = DISTINCT;
    let batch = &queries[..BATCH];
    let mut next_dense = rotating(queries);
    let mut next_lut = rotating(queries);
    let mut next_whitened = rotating(queries);
    let mut ops: [(&str, &mut dyn FnMut()); 7] = [
        ("dense_predict_1_ns", &mut || {
            dense.predict(black_box(next_dense())).unwrap();
        }),
        ("lut_predict_1_ns", &mut || {
            fast.predict(black_box(next_lut())).unwrap();
        }),
        ("lut_whitened_predict_1_ns", &mut || {
            whitened.predict(black_box(next_whitened())).unwrap();
        }),
        ("dense_predict_1_warm_ns", &mut || {
            dense.predict(black_box(&queries[0])).unwrap();
        }),
        ("lut_predict_1_warm_ns", &mut || {
            fast.predict(black_box(&queries[0])).unwrap();
        }),
        ("dense_predict_batch_64_ns", &mut || {
            dense.predict_batch(black_box(batch)).unwrap();
        }),
        ("lut_predict_batch_64_ns", &mut || {
            fast.predict_batch(black_box(batch)).unwrap();
        }),
    ];
    let mut results = String::new();
    for (i, (name, op)) in ops.iter_mut().enumerate() {
        if i > 0 {
            results.push_str(",\n    ");
        }
        let n = if name.contains("batch") { 50 } else { SAMPLES };
        let _ = write!(results, "\"{name}\": {}", stats_json(sample_ns(n, *op)));
    }
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"score_lut_table1_speech\",\n  \
         \"workload\": {{\"n_features\": {N_FEATURES}, \"n_classes\": {N_CLASSES}, \
         \"dim\": 2000, \"q\": 4, \"r\": 5, \"batch\": {BATCH}, \"samples\": {SAMPLES}, \
         \"distinct_queries\": {DISTINCT}}},\n  \
         \"host\": {{\"cores\": {cores}}},\n  \
         \"kernels\": [\"dense\", \"lut\"],\n  \
         \"results\": {{\n    {results}\n  }}\n}}\n"
    );
    let path = std::env::var("LOOKHD_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_score_lut.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote perf trajectory to {path}"),
        Err(e) => eprintln!("warning: writing {path}: {e}"),
    }
}

criterion_group!(benches, bench_score_lut);
criterion_main!(benches);
