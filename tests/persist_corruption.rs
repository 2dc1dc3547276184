//! Exhaustive corruption sweep over the persistence formats.
//!
//! Serialized artifacts cross a trust boundary (flashed storage, files on
//! disk), so deserialization must never panic or abort on hostile input:
//! every truncation of a valid artifact must return `Err`, and every
//! single-byte corruption must either return `Err` or produce a model
//! that still works. The intact artifact must keep predicting
//! identically.

use lookhd_paper::hdc::persist::{model_from_bytes, model_to_bytes};
use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::{
    CompressedModel, CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig,
};

/// A tiny but non-trivial trained classifier (small dim keeps the byte
/// sweeps fast: the artifact is ~1–2 KB, and we parse it once per byte).
fn tiny_classifier() -> (LookHdClassifier, Vec<Vec<f64>>) {
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..24 {
        let class = i % 2;
        let base = if class == 0 { 0.25 } else { 0.75 };
        let jitter = (i / 2) as f64 * 0.01;
        features.push(vec![base + jitter, base - jitter, base, 1.0 - base]);
        labels.push(class);
    }
    let config = LookHdConfig::new().with_dim(64).with_retrain_epochs(1);
    let clf = LookHdClassifier::fit(&config, &features, &labels).expect("training failed");
    (clf, features)
}

#[test]
fn classifier_truncated_at_every_length_errors() {
    let (clf, _) = tiny_classifier();
    let bytes = clf.to_bytes().expect("serialization failed");
    for cut in 0..bytes.len() {
        assert!(
            LookHdClassifier::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} parsed successfully",
            bytes.len()
        );
    }
    // Appending trailing garbage must also be rejected.
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(LookHdClassifier::from_bytes(&longer).is_err());
}

#[test]
fn classifier_survives_every_single_byte_flip() {
    let (clf, features) = tiny_classifier();
    let bytes = clf.to_bytes().expect("serialization failed");
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        // Structural corruption must error; payload corruption may parse
        // into a different-but-valid model. Either way: no panic, and any
        // Ok result must be usable.
        if let Ok(back) = LookHdClassifier::from_bytes(&bad) {
            let _ = back.predict(&features[0]);
        }
    }
}

#[test]
fn classifier_intact_round_trip_predicts_identically() {
    let (clf, features) = tiny_classifier();
    let bytes = clf.to_bytes().expect("serialization failed");
    let back = LookHdClassifier::from_bytes(&bytes).expect("reload failed");
    for x in &features {
        assert_eq!(
            clf.predict(x).expect("predict failed"),
            back.predict(x).expect("predict failed")
        );
    }
}

/// Like [`tiny_classifier`] but with the score-LUT kernel built, so the
/// sweeps also cover the SLT1 section and its flag byte. Small q/r keep
/// the tables (and thus the per-byte parse cost) tiny.
fn tiny_lut_classifier() -> (LookHdClassifier, Vec<Vec<f64>>) {
    let (_, features) = tiny_classifier();
    let labels: Vec<usize> = (0..features.len()).map(|i| i % 2).collect();
    let config = LookHdConfig::new()
        .with_dim(64)
        .with_q(2)
        .with_r(2)
        .with_retrain_epochs(1)
        .with_compression(CompressionConfig::new().with_decorrelate(false))
        .with_kernel(KernelSpec::auto());
    let clf = LookHdClassifier::fit(&config, &features, &labels).expect("training failed");
    assert!(clf.score_lut().is_some(), "kernel should have been built");
    (clf, features)
}

#[test]
fn lut_classifier_truncated_at_every_length_errors() {
    let (clf, _) = tiny_lut_classifier();
    let bytes = clf.to_bytes().expect("serialization failed");
    for cut in 0..bytes.len() {
        assert!(
            LookHdClassifier::from_bytes(&bytes[..cut]).is_err(),
            "lut truncation at {cut}/{} parsed successfully",
            bytes.len()
        );
    }
    let mut longer = bytes.clone();
    longer.push(0);
    assert!(LookHdClassifier::from_bytes(&longer).is_err());
}

#[test]
fn lut_classifier_survives_every_single_byte_flip() {
    let (clf, features) = tiny_lut_classifier();
    let bytes = clf.to_bytes().expect("serialization failed");
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        if let Ok(back) = LookHdClassifier::from_bytes(&bad) {
            let _ = back.predict(&features[0]);
        }
    }
}

#[test]
fn lut_classifier_intact_round_trip_predicts_identically() {
    let (clf, features) = tiny_lut_classifier();
    let bytes = clf.to_bytes().expect("serialization failed");
    let back = LookHdClassifier::from_bytes(&bytes).expect("reload failed");
    assert!(back.score_lut().is_some(), "kernel lost in round trip");
    for x in &features {
        assert_eq!(
            clf.predict(x).expect("predict failed"),
            back.predict(x).expect("predict failed")
        );
        assert_eq!(
            clf.scores(x).expect("scores failed"),
            back.scores(x).expect("scores failed")
        );
    }
}

/// LKS1 defines kernel-section tags 0 (dense, no payload) and 1 (SLT1).
/// Tag 2 was the retired binary Hamming kernel's section: a stream carrying
/// it, with or without a well-formed length and payload, is rejected at
/// load instead of silently serving some other kernel.
#[test]
fn retired_kernel_tag_2_is_rejected_at_load() {
    let (clf, _) = tiny_classifier();
    let mut bytes = clf.to_bytes().expect("serialization failed");
    assert_eq!(bytes.last(), Some(&0), "dense artifacts end in tag 0");
    *bytes.last_mut().expect("non-empty") = 2;
    let bare = LookHdClassifier::from_bytes(&bytes).expect_err("bare tag 2 parsed");
    let payload = b"retired binary-kernel payload";
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    let framed = LookHdClassifier::from_bytes(&bytes).expect_err("framed tag 2 parsed");
    for err in [bare, framed] {
        assert!(
            err.to_string().contains("unknown kernel flag 2"),
            "unexpected error: {err}"
        );
    }
}

#[test]
fn hdc1_model_sweep_never_panics() {
    let (clf, _) = tiny_classifier();
    let bytes = model_to_bytes(clf.model()).expect("serialization failed");
    for cut in 0..bytes.len() {
        assert!(
            model_from_bytes(&bytes[..cut]).is_err(),
            "HDC1 truncation at {cut}/{} parsed successfully",
            bytes.len()
        );
    }
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        let _ = model_from_bytes(&bad);
    }
}

#[test]
fn lkc1_compressed_sweep_never_panics() {
    let (clf, features) = tiny_classifier();
    let bytes = clf.compressed().to_bytes().expect("serialization failed");
    for cut in 0..bytes.len() {
        assert!(
            CompressedModel::from_bytes(&bytes[..cut]).is_err(),
            "LKC1 truncation at {cut}/{} parsed successfully",
            bytes.len()
        );
    }
    let query = clf.encode(&features[0]).expect("encode failed");
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0xFF;
        if let Ok(back) = CompressedModel::from_bytes(&bad) {
            let _ = back.predict(&query);
        }
    }
}
