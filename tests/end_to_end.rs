//! End-to-end integration tests: the full LookHD pipeline against every
//! application profile, plus baseline-vs-LookHD sanity on each.

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::classifier::{HdcClassifier, HdcConfig};
use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::{LookHdClassifier, LookHdConfig};
use lookhd_paper::mlp::{Mlp, MlpConfig};

const DIM: usize = 768;

#[test]
fn lookhd_learns_every_application_profile() {
    for app in App::ALL {
        let profile = app.profile();
        let data = profile.generate_small(11);
        let config = LookHdConfig::new()
            .with_dim(DIM)
            .with_q(profile.paper_q_lookhd)
            .with_retrain_epochs(3);
        let clf = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
            .expect("training failed");
        let acc = clf
            .evaluate(&data.test.features, &data.test.labels)
            .expect("scoring failed");
        let chance = 1.0 / profile.n_classes as f64;
        // Halfway between chance and the paper's accuracy for this app
        // (the profiles include an ambiguous subpopulation, so the paper
        // accuracy — not 100% — is the ceiling).
        let floor = chance + 0.5 * (profile.paper_accuracy_baseline - chance);
        assert!(
            acc > floor,
            "{}: accuracy {acc:.3} below floor {floor:.3}",
            profile.name
        );
    }
}

#[test]
fn baseline_learns_every_application_profile() {
    for app in App::ALL {
        let profile = app.profile();
        let data = profile.generate_small(12);
        let config = HdcConfig::new()
            .with_dim(DIM)
            .with_q(profile.paper_q_baseline)
            .with_retrain_epochs(3);
        let clf = HdcClassifier::fit(&config, &data.train.features, &data.train.labels)
            .expect("training failed");
        let acc = clf
            .evaluate(&data.test.features, &data.test.labels)
            .expect("scoring failed");
        let chance = 1.0 / profile.n_classes as f64;
        let floor = chance + 0.5 * (profile.paper_accuracy_baseline - chance);
        assert!(
            acc > floor,
            "{}: accuracy {acc:.3} below floor {floor:.3}",
            profile.name
        );
    }
}

#[test]
fn uncompressed_lookhd_matches_baseline_on_easy_profile() {
    // On PHYSICAL (well-separated), the LookHD pipeline with q=2 equalized
    // levels should match the baseline's q=8 linear accuracy (the paper's
    // quantization-reduction claim).
    let profile = App::Physical.profile();
    let data = profile.generate_small(13);
    let base = HdcClassifier::fit(
        &HdcConfig::new()
            .with_dim(DIM)
            .with_q(profile.paper_q_baseline)
            .with_retrain_epochs(3),
        &data.train.features,
        &data.train.labels,
    )
    .expect("baseline failed");
    let look = LookHdClassifier::fit(
        &LookHdConfig::new()
            .with_dim(DIM)
            .with_q(profile.paper_q_lookhd)
            .with_retrain_epochs(3),
        &data.train.features,
        &data.train.labels,
    )
    .expect("lookhd failed");
    let base_acc = base
        .evaluate(&data.test.features, &data.test.labels)
        .expect("scoring failed");
    let mut unc = 0usize;
    for (x, &y) in data.test.features.iter().zip(&data.test.labels) {
        if look.predict_uncompressed(x).expect("predict failed") == y {
            unc += 1;
        }
    }
    let look_acc = unc as f64 / data.test.len() as f64;
    assert!(
        look_acc + 0.07 >= base_acc,
        "LookHD q=2 equalized ({look_acc:.3}) should track baseline q=8 linear ({base_acc:.3})"
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let profile = App::Extra.profile();
    let data = profile.generate_small(14);
    let config = LookHdConfig::new()
        .with_dim(512)
        .with_seed(1234)
        .with_retrain_epochs(2);
    let a = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
        .expect("training failed");
    let b = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
        .expect("training failed");
    assert_eq!(
        a.predict_batch(&data.test.features)
            .expect("predict failed"),
        b.predict_batch(&data.test.features)
            .expect("predict failed")
    );
}

#[test]
fn compressed_model_is_smaller_for_every_app() {
    for app in App::ALL {
        let profile = app.profile();
        let data = profile.generate_small(15);
        let clf = LookHdClassifier::fit(
            &LookHdConfig::new().with_dim(256).with_retrain_epochs(0),
            &data.train.features,
            &data.train.labels,
        )
        .expect("training failed");
        assert!(
            clf.compressed().size_bytes() <= clf.model().size_bytes(),
            "{}: compression must not grow the model",
            profile.name
        );
        // Adaptive grouping may shrink groups below 12 when validation
        // shows quality loss, but never below one class per vector.
        let min_vectors = profile.n_classes.div_ceil(12);
        let vectors = clf.compressed().n_vectors();
        assert!(
            (min_vectors..=profile.n_classes).contains(&vectors),
            "{}: {vectors} vectors outside [{min_vectors}, {}]",
            profile.name,
            profile.n_classes
        );
        // Without a validation split (so no adaptive grouping), the
        // paper's fixed ⌈k/12⌉ holds.
        let fixed = LookHdClassifier::fit(
            &LookHdConfig::new()
                .with_dim(256)
                .with_retrain_epochs(0)
                .with_validation_fraction(0.0),
            &data.train.features,
            &data.train.labels,
        )
        .expect("training failed");
        assert_eq!(
            fixed.compressed().n_vectors(),
            min_vectors,
            "{}",
            profile.name
        );
    }
}

type Split = (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>, Vec<usize>);

/// The PHYSICAL profile's small train/test split.
fn dataset() -> Split {
    let data = App::Physical.profile().generate_small(97);
    (
        data.train.features,
        data.train.labels,
        data.test.features,
        data.test.labels,
    )
}

/// All three model families construct and run through `dyn Classifier`.
#[test]
fn all_classifiers_work_through_trait_objects() {
    let (xs, ys, txs, tys) = dataset();
    let n_classes = ys.iter().max().unwrap() + 1;
    let models: Vec<Box<dyn Classifier>> = vec![
        Box::new(
            HdcClassifier::fit(
                &HdcConfig::new().with_dim(256).with_retrain_epochs(1),
                &xs,
                &ys,
            )
            .unwrap(),
        ),
        Box::new(
            LookHdClassifier::fit(
                &LookHdConfig::new().with_dim(256).with_retrain_epochs(1),
                &xs,
                &ys,
            )
            .unwrap(),
        ),
        Box::new(
            Mlp::fit(
                &MlpConfig::new().with_hidden(vec![32]).with_epochs(10),
                &xs,
                &ys,
            )
            .unwrap(),
        ),
    ];
    for model in &models {
        assert_eq!(model.num_classes(), n_classes);
        let preds = model.predict_batch(&txs).unwrap();
        assert_eq!(preds.len(), txs.len());
        assert!(preds.iter().all(|&p| p < n_classes));
        let acc = model.evaluate(&txs, &tys).unwrap();
        assert!(
            acc > 1.0 / n_classes as f64,
            "trait-object path should beat chance, got {acc}"
        );
        // Single-query path agrees with the batch path.
        assert_eq!(model.predict(&txs[0]).unwrap(), preds[0]);
    }
}
