//! Adapting to concept drift with online updates.
//!
//! A static model trained before deployment decays as the data drifts; a
//! model that keeps consuming the stream with novelty-scaled updates
//! tracks the drift. This is the IoT maintenance story behind §I's
//! "real-time learning on IoT devices".
//!
//! Run: `cargo run --release --example concept_drift`

use lookhd_paper::datasets::drift::DriftStream;
use lookhd_paper::datasets::synthetic::GeneratorConfig;
use lookhd_paper::hdc::encoding::Encode;
use lookhd_paper::hdc::HdcError;
use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::online::OnlineTrainer;
use lookhd_paper::lookhd::{LookHdClassifier, LookHdConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), HdcError> {
    let mut rng = StdRng::seed_from_u64(2024);
    let config = GeneratorConfig {
        n_features: 32,
        n_classes: 4,
        noise: 0.05,
        shared_weight: 0.2,
        informative_fraction: 1.0,
        skew_power: 2.0,
        ambiguous_fraction: 0.0,
    };
    let mut stream = DriftStream::new(config, 1200, &mut rng);

    // Phase 1: collect a pre-deployment training set (no drift yet).
    let (train_xs, train_ys) = stream.snapshot(40, &mut rng);
    let scaffold = LookHdClassifier::fit(
        &LookHdConfig::new().with_dim(1024).with_retrain_epochs(3),
        &train_xs,
        &train_ys,
    )?;
    let encoder = scaffold.encoder();
    let mut adaptive = OnlineTrainer::new(4, 1024)?;
    for (x, &y) in train_xs.iter().zip(&train_ys) {
        adaptive.observe(&encoder.encode(x)?, y)?;
    }

    println!(
        "{:<10} {:>8} {:>12} {:>12}",
        "samples", "drift", "static", "adaptive"
    );
    // Phase 2: deployment. The static model is frozen; the adaptive one
    // keeps learning from the (labelled) stream.
    for checkpoint in 1..=6 {
        for _ in 0..200 {
            let (x, y) = stream.next_sample(&mut rng);
            adaptive.observe(&encoder.encode(&x)?, y)?;
        }
        let (test_xs, test_ys) = stream.snapshot(25, &mut rng);
        let adaptive_model = adaptive.finalize()?;
        let (mut stat, mut adapt) = (0usize, 0usize);
        for (x, &y) in test_xs.iter().zip(&test_ys) {
            if scaffold.predict(x)? == y {
                stat += 1;
            }
            if adaptive_model.predict(&encoder.encode(x)?)? == y {
                adapt += 1;
            }
        }
        let n = test_xs.len() as f64;
        println!(
            "{:<10} {:>7.0}% {:>11.1}% {:>11.1}%",
            checkpoint * 200,
            stream.progress() * 100.0,
            100.0 * stat as f64 / n,
            100.0 * adapt as f64 / n
        );
    }
    println!(
        "\nThe static model decays as the prototypes drift; online novelty-scaled\n\
         updates keep the adaptive model on track at one pass over the stream."
    );
    Ok(())
}
