//! Differential tests across the two exact scoring kernels.
//!
//! [`ScoreKernel`](lookhd_paper::lookhd::ScoreKernel) is a two-variant
//! enum (dense, score-LUT), so the kernels are directly comparable on the
//! five Table-I application profiles, with decorrelation off and on: dense
//! and score-LUT must agree *bit for bit* (scores and argmax), both must
//! survive persistence unchanged, and a proptest checks rematerialization:
//! load rebuilds fit's score-LUT from the round-tripped (seed-regenerated)
//! model, and building it again reproduces those tables bit for bit.

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::{
    build_kernel, CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig,
};
use proptest::prelude::*;

const DIM: usize = 512;

fn fit_dense(app: App, seed: u64, decorrelate: bool) -> (LookHdClassifier, Vec<Vec<f64>>) {
    let profile = app.profile();
    let data = profile.generate_small(seed);
    let config = LookHdConfig::new()
        .with_dim(DIM)
        .with_q(profile.paper_q_lookhd)
        .with_retrain_epochs(3)
        .with_compression(CompressionConfig::new().with_decorrelate(decorrelate));
    let clf = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
        .expect("training failed");
    (clf, data.test.features)
}

#[test]
fn dense_and_lut_agree_bit_for_bit_on_all_profiles() {
    for (app, decorrelate) in App::ALL
        .into_iter()
        .flat_map(|app| [(app, false), (app, true)])
    {
        let (dense, queries) = fit_dense(app, 41, decorrelate);
        // The same trained model behind a different kernel: `set_kernel`
        // swaps the scoring path without touching encoder or weights.
        let mut lut = dense.clone();
        lut.set_kernel(&KernelSpec::lut()).expect("lut build");
        assert_eq!(lut.kernel().name(), "lut");
        for x in &queries {
            assert_eq!(
                dense.scores(x).expect("dense scores"),
                lut.scores(x).expect("lut scores"),
                "{app:?}: lut scores diverged from dense"
            );
            assert_eq!(
                dense.predict(x).expect("dense predict"),
                lut.predict(x).expect("lut predict"),
                "{app:?}: lut argmax diverged from dense"
            );
        }
    }
}

#[test]
fn every_kernel_round_trips_through_persistence_on_a_profile() {
    for (decorrelate, spec) in [false, true]
        .into_iter()
        .flat_map(|d| [(d, KernelSpec::dense()), (d, KernelSpec::lut())])
    {
        let (dense, queries) = fit_dense(App::Extra, 53, decorrelate);
        let mut clf = dense.clone();
        clf.set_kernel(&spec).expect("kernel build");
        let back =
            LookHdClassifier::from_bytes(&clf.to_bytes().expect("serialize")).expect("deserialize");
        assert_eq!(back.kernel().name(), clf.kernel().name());
        for x in &queries {
            assert_eq!(
                back.predict(x).expect("reloaded predict"),
                clf.predict(x).expect("predict"),
                "kernel {} changed predictions across persistence",
                clf.kernel().name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Rematerialization: level and position hypervectors are never
    /// persisted, they regenerate from the seed, and load rebuilds fit's
    /// score-LUT from them and the compressed model. Building the tables
    /// again from the *round-tripped* classifier's regenerated encoder
    /// and compressed model must reproduce the loaded tables bit for bit.
    #[test]
    fn rematerialized_lut_tables_are_bit_identical(
        seed in 0u64..1000,
        dim_ix in 0usize..3,
    ) {
        let dim = [192usize, 256, 320][dim_ix];
        let data = App::Physical.profile().generate_small(seed);
        let config = LookHdConfig::new()
            .with_dim(dim)
            .with_q(2)
            .with_seed(seed ^ 0xB1A5)
            .with_retrain_epochs(1)
            .with_compression(CompressionConfig::new().with_decorrelate(false))
            .with_kernel(KernelSpec::lut());
        let clf = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
            .expect("training failed");
        let back = LookHdClassifier::from_bytes(&clf.to_bytes().expect("serialize"))
            .expect("deserialize");
        prop_assert!(back.score_lut().is_some(), "score-LUT lost in persistence");
        let rebuilt = build_kernel(back.encoder(), back.compressed(), &KernelSpec::lut())
            .expect("rematerialized build");
        prop_assert_eq!(&rebuilt, back.kernel());
    }
}
