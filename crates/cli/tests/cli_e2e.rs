//! End-to-end tests of the `lookhd` binary: train on a CSV, persist,
//! evaluate, predict, introspect — exactly as a user would.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lookhd"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lookhd_cli_e2e_{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create workdir");
    dir
}

/// Writes a small three-class CSV dataset.
fn write_dataset(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    let mut train = String::from("f0,f1,f2,f3,label\n");
    let mut test = String::new();
    let mut queries = String::new();
    for i in 0..60 {
        let class = i % 3;
        let base = [0.1, 0.5, 0.9][class];
        let jitter = (i % 7) as f64 * 0.004;
        let row = format!(
            "{:.3},{:.3},{:.3},{:.3}",
            base + jitter,
            base - jitter,
            base + 2.0 * jitter,
            base
        );
        if i < 45 {
            train.push_str(&format!("{row},{class}\n"));
        } else {
            test.push_str(&format!("{row},{class}\n"));
            queries.push_str(&format!("{row}\n"));
        }
    }
    let train_path = dir.join("train.csv");
    let test_path = dir.join("test.csv");
    let queries_path = dir.join("queries.csv");
    fs::write(&train_path, train).expect("write train");
    fs::write(&test_path, test).expect("write test");
    fs::write(&queries_path, queries).expect("write queries");
    (train_path, test_path, queries_path)
}

#[test]
fn train_evaluate_predict_round_trip() {
    let dir = workdir("round_trip");
    let (train, test, queries) = write_dataset(&dir);
    let model = dir.join("model.lks");

    let out = bin()
        .args([
            "train",
            "--data",
            train.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--dim",
            "256",
            "--epochs",
            "2",
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists(), "model file must be written");

    let out = bin()
        .args([
            "evaluate",
            "--model",
            model.to_str().unwrap(),
            "--data",
            test.to_str().unwrap(),
        ])
        .output()
        .expect("run evaluate");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("accuracy over 15 samples"),
        "unexpected output: {text}"
    );
    assert!(
        text.contains("100.0% compressed"),
        "easy data should be perfect: {text}"
    );

    let out = bin()
        .args([
            "predict",
            "--model",
            model.to_str().unwrap(),
            "--data",
            queries.to_str().unwrap(),
        ])
        .output()
        .expect("run predict");
    assert!(out.status.success());
    let predictions: Vec<&str> = std::str::from_utf8(&out.stdout)
        .expect("utf8")
        .lines()
        .collect();
    assert_eq!(predictions.len(), 15);
    // Queries cycle classes 0,1,2 in the same order as the labels.
    assert_eq!(predictions[0], "0");
    assert_eq!(predictions[1], "1");
    assert_eq!(predictions[2], "2");

    let out = bin()
        .args(["info", "--model", model.to_str().unwrap()])
        .output()
        .expect("run info");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("features (n):        4"));
    assert!(text.contains("classes (k):         3"));
    assert!(text.contains("dimensionality (D):  256"));

    let out = bin()
        .args(["estimate", "--model", model.to_str().unwrap()])
        .output()
        .expect("run estimate");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("per query"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kernel_flags_select_and_report_kernels() {
    let dir = workdir("kernel_flags");
    let (train, test, _) = write_dataset(&dir);

    // An explicit score-LUT request.
    let explicit_model = dir.join("explicit_lut.lks");
    let out = bin()
        .args([
            "train",
            "--data",
            train.to_str().unwrap(),
            "--out",
            explicit_model.to_str().unwrap(),
            "--dim",
            "256",
            "--epochs",
            "2",
            "--kernel",
            "lut",
        ])
        .output()
        .expect("run train --kernel lut");
    assert!(
        out.status.success(),
        "lut train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("kernel: lut (exact;"),
        "missing kernel report: {text}"
    );
    // The default config decorrelates: the tables carry the whitening
    // projection as one column after the class columns.
    assert!(
        text.contains("x 3 classes + 1 projection column"),
        "missing projection column: {text}"
    );

    // The artifact reports its kernel in `info`, and a `--kernel` override
    // rebuilds it in place.
    let out = bin()
        .args(["info", "--model", explicit_model.to_str().unwrap()])
        .output()
        .expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kernel:              lut"), "{text}");
    let out = bin()
        .args([
            "info",
            "--model",
            explicit_model.to_str().unwrap(),
            "--kernel",
            "dense",
        ])
        .output()
        .expect("run info --kernel dense");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kernel:              dense"), "{text}");

    // The LUT model classifies the easy test split.
    let out = bin()
        .args([
            "evaluate",
            "--model",
            explicit_model.to_str().unwrap(),
            "--data",
            test.to_str().unwrap(),
        ])
        .output()
        .expect("run evaluate");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("100.0% compressed"), "{text}");

    // The removed --score-lut spelling is rejected with a pointer to
    // the replacement, not silently ignored.
    let out = bin()
        .args([
            "train",
            "--data",
            train.to_str().unwrap(),
            "--out",
            dir.join("removed.lks").to_str().unwrap(),
            "--score-lut",
        ])
        .output()
        .expect("run train --score-lut");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--score-lut was removed"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let lut_model = dir.join("lut.lks");
    let out = bin()
        .args([
            "train",
            "--data",
            train.to_str().unwrap(),
            "--out",
            lut_model.to_str().unwrap(),
            "--dim",
            "256",
            "--epochs",
            "2",
            "--kernel",
            "auto",
        ])
        .output()
        .expect("run train --kernel auto");
    assert!(
        out.status.success(),
        "kernel-auto train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kernel: lut (exact;"), "{text}");
    let out = bin()
        .args(["info", "--model", lut_model.to_str().unwrap()])
        .output()
        .expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("kernel:              lut"), "{text}");
    assert!(text.contains("+ 1 projection column"), "{text}");

    // Unknown kinds, including the deleted binary kernel, are rejected
    // with the expected vocabulary.
    for kind in ["bogus", "binary"] {
        let out = bin()
            .args([
                "train",
                "--data",
                train.to_str().unwrap(),
                "--out",
                dir.join("rejected.lks").to_str().unwrap(),
                "--kernel",
                kind,
            ])
            .output()
            .expect("run train with an unknown kernel");
        assert!(!out.status.success(), "--kernel {kind} was accepted");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("expected auto, dense, or lut"),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn inspect_summarizes_a_csv() {
    let dir = workdir("inspect");
    let (train, _, _) = write_dataset(&dir);
    let out = bin()
        .args(["inspect", "--data", train.to_str().unwrap()])
        .output()
        .expect("run inspect");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("features (n):   4"), "{text}");
    assert!(text.contains("classes (k):    3"), "{text}");
    assert!(text.contains("suggested:"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn helpful_errors_for_bad_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = bin()
        .args(["train", "--data", "missing.csv"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));

    let out = bin()
        .args([
            "evaluate",
            "--model",
            "/nonexistent/model.lks",
            "--data",
            "x.csv",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());

    let out = bin().output().expect("run");
    assert!(out.status.success(), "bare invocation prints usage");
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

/// A flag a subcommand does not read fails the command and is named,
/// instead of being silently ignored — including the `serve` flags of
/// the retired request queue.
#[test]
fn unknown_flags_are_rejected_by_name() {
    let dir = workdir("unknown_flags");
    let (train, _, _) = write_dataset(&dir);
    let model = dir.join("model.lks");
    let out = bin()
        .args([
            "train",
            "--data",
            train.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--dim",
            "256",
            "--epochs",
            "1",
            "--bogus-flag",
            "1",
        ])
        .output()
        .expect("run train --bogus-flag");
    assert!(!out.status.success(), "train accepted --bogus-flag");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus-flag"), "stderr: {stderr}");
    assert!(!model.exists(), "a rejected command must not train");

    // No subcommand reads --threads: training and batch inference run on
    // the calling thread. Nor --kernel-budget: the score-LUT's tables
    // have one fixed 64 MiB cap. Each fails at the flag check, before
    // training or loading the (absent) model.
    let data = train.to_str().unwrap();
    let path = model.to_str().unwrap();
    for args in [
        ["train", "--data", data, "--out", path, "--threads", "2"],
        [
            "evaluate",
            "--model",
            path,
            "--data",
            data,
            "--threads",
            "2",
        ],
        [
            "train",
            "--data",
            data,
            "--out",
            path,
            "--kernel-budget",
            "1",
        ],
    ] {
        let flag = args[5];
        let out = bin().args(args).output().expect("run an unread flag");
        assert!(!out.status.success(), "{} accepted {flag}", args[0]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "stderr: {stderr}");
        assert!(!stderr.contains("reading"), "stderr: {stderr}");
        assert!(!model.exists(), "a rejected command must not train");
    }

    // `serve` does not read --threads (each reactor scores the requests
    // it reads), so it fails before binding.
    let out = bin()
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .output()
        .expect("run serve --threads");
    assert!(!out.status.success(), "serve accepted --threads");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "stderr: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}

/// `serve` loads `LKS1` classifiers only: a file in any other format
/// fails at load, before the server binds.
#[test]
fn serve_rejects_a_model_that_is_not_lks1() {
    let dir = workdir("serve_not_lks1");
    let model = dir.join("model.hdc");
    fs::write(&model, b"HDC1 a bare class model, not a classifier").expect("write model");
    let out = bin()
        .args([
            "serve",
            "--model",
            model.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .output()
        .expect("run serve");
    assert!(!out.status.success(), "serve accepted a non-LKS1 model");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("LKS1"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("serving on"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

/// Minimal structural validation of the metrics JSON without a JSON
/// parser: balanced braces/brackets outside strings, and the expected
/// top-level keys.
fn assert_looks_like_metrics_json(text: &str) {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced JSON: {text}");
        }
    }
    assert_eq!(depth, 0, "unbalanced JSON: {text}");
    assert!(!in_string, "unterminated string: {text}");
    assert!(text.contains("\"version\": 3"), "{text}");
    assert!(text.contains("\"spans\""), "{text}");
    assert!(text.contains("\"counters\""), "{text}");
}

#[test]
fn metrics_flag_writes_stage_spans() {
    let dir = workdir("metrics");
    let (train, test, _) = write_dataset(&dir);
    let model = dir.join("model.lks");
    let metrics = dir.join("train_metrics.json");

    let out = bin()
        .args([
            "train",
            "--data",
            train.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
            "--dim",
            "256",
            "--epochs",
            "1",
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run train");
    assert!(
        out.status.success(),
        "train failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = fs::read_to_string(&metrics).expect("metrics file must be written");
    assert_looks_like_metrics_json(&text);
    // The training pipeline's stages must all appear as named spans with
    // real durations. Span *paths* vary with nesting, so match names and
    // rely on snapshot ordering only for the version header.
    for stage in ["encode", "counter_train", "compress", "predict"] {
        assert!(
            text.contains(stage),
            "stage {stage} missing from metrics: {text}"
        );
    }
    let totals: Vec<u64> = text
        .match_indices("\"total_ns\": ")
        .map(|(i, tag)| {
            text[i + tag.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .expect("total_ns must be an integer")
        })
        .collect();
    assert!(!totals.is_empty(), "no spans recorded: {text}");
    assert!(
        totals.iter().any(|&t| t > 0),
        "all span durations are zero: {text}"
    );
    assert!(
        text.contains("counter_train.samples"),
        "counters missing: {text}"
    );

    // Every subcommand takes the flag; a pure-inference run records
    // predict/encode but no training stages.
    let eval_metrics = dir.join("eval_metrics.json");
    let out = bin()
        .args([
            "evaluate",
            "--model",
            model.to_str().unwrap(),
            "--data",
            test.to_str().unwrap(),
            "--metrics",
            eval_metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run evaluate");
    assert!(out.status.success());
    let text = fs::read_to_string(&eval_metrics).expect("metrics file must be written");
    assert_looks_like_metrics_json(&text);
    assert!(text.contains("predict"), "{text}");
    assert!(!text.contains("counter_train"), "{text}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn rejects_malformed_csv_with_line_numbers() {
    let dir = workdir("bad_csv");
    let bad = dir.join("bad.csv");
    fs::write(&bad, "1,2,0\n1,oops,1\n").expect("write");
    let model = dir.join("m.lks");
    let out = bin()
        .args([
            "train",
            "--data",
            bad.to_str().unwrap(),
            "--out",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 2"));
    let _ = fs::remove_dir_all(&dir);
}
