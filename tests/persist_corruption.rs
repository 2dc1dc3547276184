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
/// sweeps also cover its kernel tag and the (empty) section after it.
/// Small q/r keep the tables, which every successful load rebuilds,
/// tiny. A decorrelated model's tables carry one projection column after
/// the class columns.
fn tiny_lut_classifier(decorrelate: bool) -> (LookHdClassifier, Vec<Vec<f64>>) {
    let (_, features) = tiny_classifier();
    let labels: Vec<usize> = (0..features.len()).map(|i| i % 2).collect();
    let config = LookHdConfig::new()
        .with_dim(64)
        .with_q(2)
        .with_r(2)
        .with_retrain_epochs(1)
        .with_compression(CompressionConfig::new().with_decorrelate(decorrelate))
        .with_kernel(KernelSpec::auto());
    let clf = LookHdClassifier::fit(&config, &features, &labels).expect("training failed");
    let lut = clf.score_lut().expect("kernel should have been built");
    assert_eq!(lut.n_columns(), 2 + usize::from(decorrelate));
    (clf, features)
}

#[test]
fn lut_classifier_truncated_at_every_length_errors() {
    for decorrelate in [false, true] {
        let (clf, _) = tiny_lut_classifier(decorrelate);
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
}

#[test]
fn lut_classifier_survives_every_single_byte_flip() {
    for decorrelate in [false, true] {
        let (clf, features) = tiny_lut_classifier(decorrelate);
        let bytes = clf.to_bytes().expect("serialization failed");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            if let Ok(back) = LookHdClassifier::from_bytes(&bad) {
                let _ = back.predict(&features[0]);
            }
        }
    }
}

#[test]
fn lut_classifier_intact_round_trip_predicts_identically() {
    for decorrelate in [false, true] {
        let (clf, features) = tiny_lut_classifier(decorrelate);
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
}

/// LUT ≡ dense holds for every artifact that loads: a LUT artifact's
/// tables are rebuilt from the encoder and compressed model it carries,
/// so whatever single byte is flipped, a classifier that loads scores
/// every row exactly like the dense path of the same loaded model (or
/// fails on both). A header `dim` that disagrees with the embedded
/// models is refused at load instead of serving tables built for
/// another encoder.
#[test]
fn every_loadable_byte_flip_of_a_lut_artifact_keeps_lut_equal_to_dense() {
    for decorrelate in [false, true] {
        let (clf, features) = tiny_lut_classifier(decorrelate);
        let bytes = clf.to_bytes().expect("serialization failed");
        let mut loaded = 0;
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let Ok(back) = LookHdClassifier::from_bytes(&bad) else {
                continue;
            };
            loaded += 1;
            let mut dense = back.clone();
            dense
                .set_kernel(&KernelSpec::dense())
                .expect("dense always builds");
            for x in &features {
                assert_eq!(
                    back.scores(x).ok(),
                    dense.scores(x).ok(),
                    "byte {i} flipped: the loaded {} kernel diverged from its dense path",
                    back.kernel().name()
                );
            }
        }
        assert!(loaded > 0, "no flip loaded: the sweep checked nothing");
    }
}

/// Older writers stored the score-LUT's tables (an `SLT1` payload) in
/// the tag-1 section. Readers skip those bytes and rebuild the tables,
/// so such an artifact loads and serves the tables fit built, whatever
/// the stored payload says.
#[test]
fn legacy_tables_in_the_lut_section_are_skipped_and_rebuilt() {
    for decorrelate in [false, true] {
        let (clf, features) = tiny_lut_classifier(decorrelate);
        let lut = clf.score_lut().expect("lut");
        let mut bytes = clf.to_bytes().expect("serialization failed");
        // Writers end a LUT artifact with tag 1 and an empty section.
        assert_eq!(&bytes[bytes.len() - 5..], &[1, 0, 0, 0, 0]);
        bytes.truncate(bytes.len() - 4);
        // An SLT1 layout (magic, chunk and column counts, rows per chunk,
        // entries) whose entries are all wrong.
        let mut payload = b"SLT1".to_vec();
        payload.extend_from_slice(&(lut.n_chunks() as u32).to_le_bytes());
        payload.extend_from_slice(&(lut.n_columns() as u32).to_le_bytes());
        let mut entries = 0;
        for i in 0..lut.n_chunks() {
            payload.extend_from_slice(&(lut.rows(i) as u64).to_le_bytes());
            entries += lut.rows(i) * lut.n_columns();
        }
        for _ in 0..entries {
            payload.extend_from_slice(&0x5A5A_5A5A_i64.to_le_bytes());
        }
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let back = LookHdClassifier::from_bytes(&bytes).expect("legacy artifact refused");
        assert_eq!(back.score_lut(), clf.score_lut());
        for x in &features {
            assert_eq!(back.scores(x).unwrap(), clf.scores(x).unwrap());
        }
        // Rewritten, it is the current artifact again.
        assert_eq!(
            back.to_bytes().expect("serialization failed"),
            clf.to_bytes().expect("serialization failed")
        );
    }
}

/// The LKS1 header's `dim` must match both embedded models, and the
/// uncompressed and compressed models must agree on the class count.
/// Flipping byte 4 turns the header `dim` 64 into 191: such an artifact
/// used to load, and then every predict failed with a dimension
/// mismatch. Splicing in the compressed section of a 3-class model
/// under a 2-class one is refused the same way.
#[test]
fn lks1_header_and_sections_must_agree_at_load() {
    let (clf, _) = tiny_classifier();
    let bytes = clf.to_bytes().expect("serialization failed");
    assert_eq!(&bytes[4..8], &64u32.to_le_bytes());
    let mut dim = bytes.clone();
    dim[4] ^= 0xFF;
    let err = LookHdClassifier::from_bytes(&dim).expect_err("flipped dim loaded");
    assert!(err.to_string().contains("dim 191"), "{err}");

    // A 3-class model at the same D.
    let (features, labels): (Vec<Vec<f64>>, Vec<usize>) = (0..24)
        .map(|i| (vec![0.2 + 0.1 * (i % 3) as f64; 4], i % 3))
        .unzip();
    let config = LookHdConfig::new().with_dim(64).with_retrain_epochs(1);
    let three = LookHdClassifier::fit(&config, &features, &labels).expect("training failed");
    assert_eq!(three.compressed().n_classes(), 3);
    // A dense LKS1 ends with the u32 LKC1 length, the LKC1 section and
    // kernel tag 0.
    let lkc1 = clf.compressed().to_bytes().expect("serialization failed");
    let other = three.compressed().to_bytes().expect("serialization failed");
    let mut spliced = bytes[..bytes.len() - 1 - lkc1.len() - 4].to_vec();
    spliced.extend_from_slice(&(other.len() as u32).to_le_bytes());
    spliced.extend_from_slice(&other);
    spliced.push(0);
    let err = LookHdClassifier::from_bytes(&spliced).expect_err("spliced classes loaded");
    assert!(err.to_string().contains("n_classes"), "{err}");
}

/// LKS1 defines kernel-section tags 0 (dense, no section) and 1 (LUT).
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

/// LKC1 and LKS1 keep the bytes of retired configuration fields: writers
/// emit `decorrelate_rounds = 1`, scale tag 0 (average-norm) with value 0,
/// at most one whitening direction, level-scheme tag 0 and table-mode tag
/// 0. A stream carrying any other value is rejected at load with an error
/// naming the field, instead of loading under a pipeline that no longer
/// exists — except table-mode tag 1, which older writers emitted for a
/// model that encodes the same, and which loads as that model.
#[test]
fn retired_config_values_are_rejected_at_load() {
    let (clf, features) = tiny_classifier();
    let compressed = clf.compressed();
    assert_eq!(compressed.n_directions(), 1, "default config decorrelates");
    let lkc1 = compressed.to_bytes().expect("serialization failed");
    let rejects = |bytes: &[u8], field: &str| {
        let err = CompressedModel::from_bytes(bytes).expect_err("retired value loaded");
        assert!(err.to_string().contains(field), "{field}: {err}");
    };
    // LKC1 header: magic, dim u32, max_classes_per_vector u32, decorrelate
    // u8, decorrelate_rounds u32 at 13, scale tag u8 at 17, scale value
    // i32 at 18.
    assert_eq!(&lkc1[13..22], &[1, 0, 0, 0, 0, 0, 0, 0, 0]);
    let mut rounds = lkc1.clone();
    rounds[13..17].copy_from_slice(&2u32.to_le_bytes());
    rejects(&rounds, "decorrelate_rounds");
    let mut scale = lkc1.clone();
    scale[17] = 1;
    rejects(&scale, "scale");
    // The stream ends with the direction count and the direction; a second
    // copy of the (valid, unit-norm) direction makes two.
    let dir_at = lkc1.len() - compressed.dim() * 8;
    let mut two = lkc1[..dir_at - 4].to_vec();
    two.extend_from_slice(&2u32.to_le_bytes());
    two.extend_from_slice(&lkc1[dir_at..]);
    two.extend_from_slice(&lkc1[dir_at..]);
    rejects(&two, "n_directions");
    // LKS1 header: magic, dim, q, r, n_features (u32 each), quantization
    // tag at 20, level-scheme tag at 21, table-mode tag at 22.
    let lks1 = clf.to_bytes().expect("serialization failed");
    let mut level_scheme = lks1.clone();
    assert_eq!(level_scheme[21], 0);
    level_scheme[21] = 1;
    let err = LookHdClassifier::from_bytes(&level_scheme).expect_err("level-scheme tag 1 loaded");
    assert!(err.to_string().contains("level_scheme"), "{err}");
    // The table-mode byte is written 0. Older writers stored 1 for a
    // chunk table past 64 MiB, and both modes encoded identically, so 1
    // loads the same model; any other value is refused.
    assert_eq!(lks1[22], 0);
    let mut older = lks1.clone();
    older[22] = 1;
    let back = LookHdClassifier::from_bytes(&older).expect("table-mode tag 1 refused");
    assert_eq!(
        back.to_bytes().expect("serialization failed"),
        lks1,
        "a tag-1 artifact must load the same model and write tag 0"
    );
    for x in &features {
        assert_eq!(back.predict(x).unwrap(), clf.predict(x).unwrap());
        assert_eq!(back.scores(x).unwrap(), clf.scores(x).unwrap());
    }
    let mut unknown = lks1.clone();
    unknown[22] = 2;
    let err = LookHdClassifier::from_bytes(&unknown).expect_err("table-mode tag 2 loaded");
    assert!(err.to_string().contains("table_mode"), "{err}");
}

/// A whitening direction entry that is NaN, ±inf or huge is rejected at
/// load. Such a model used to load: with NaN every whitened score was NaN,
/// so it predicted class 0 for every query.
#[test]
fn hostile_whitening_direction_values_are_rejected_at_load() {
    let (clf, _) = tiny_classifier();
    let dim = clf.compressed().dim();
    let lkc1 = clf.compressed().to_bytes().expect("serialization failed");
    let lks1 = clf.to_bytes().expect("serialization failed");
    // LKC1 ends with the direction; a dense LKS1 ends with the LKC1
    // section followed by kernel tag 0.
    let lkc1_entry = lkc1.len() - dim * 8;
    let lks1_entry = lks1.len() - 1 - dim * 8;
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
        let mut bad = lkc1.clone();
        bad[lkc1_entry..lkc1_entry + 8].copy_from_slice(&value.to_le_bytes());
        let err = CompressedModel::from_bytes(&bad).expect_err("hostile direction loaded");
        assert!(
            err.to_string().contains("whitening direction"),
            "{value}: {err}"
        );
        let mut bad = lks1.clone();
        bad[lks1_entry..lks1_entry + 8].copy_from_slice(&value.to_le_bytes());
        let err = LookHdClassifier::from_bytes(&bad).expect_err("hostile direction loaded");
        assert!(
            err.to_string().contains("whitening direction"),
            "{value}: {err}"
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
