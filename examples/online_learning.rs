//! Streaming / single-pass learning on a device that cannot afford
//! training epochs (§VI-F's "single-pass or few-pass training" setting).
//!
//! Samples arrive one at a time; the OnlineHD-style trainer updates the
//! model with novelty-scaled increments. We periodically snapshot accuracy
//! to show the model converging within its single pass, then compress the
//! final model for deployment.
//!
//! Run: `cargo run --release --example online_learning`

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::encoding::Encode;
use lookhd_paper::hdc::FitClassifier;
use lookhd_paper::hdc::HdcError;
use lookhd_paper::lookhd::online::OnlineTrainer;
use lookhd_paper::lookhd::{CompressedModel, CompressionConfig, LookHdClassifier, LookHdConfig};

fn main() -> Result<(), HdcError> {
    let fast = std::env::var("LOOKHD_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    let profile = App::Activity.profile();
    let data = if fast {
        profile.generate_small(23)
    } else {
        profile.generate(23)
    };
    let dim = if fast { 512 } else { 2000 };

    // Borrow the encoder from a zero-epoch classifier fit (same pipeline).
    let scaffold = LookHdClassifier::fit(
        &LookHdConfig::new().with_dim(dim).with_retrain_epochs(0),
        &data.train.features,
        &data.train.labels,
    )?;
    let encoder = scaffold.encoder();

    let mut trainer = OnlineTrainer::new(profile.n_classes, dim)?;
    let checkpoint_every = (data.train.len() / 6).max(1);
    println!("streaming {} samples, one pass:\n", data.train.len());
    for (i, (x, &y)) in data
        .train
        .features
        .iter()
        .zip(&data.train.labels)
        .enumerate()
    {
        trainer.observe(&encoder.encode(x)?, y)?;
        if (i + 1) % checkpoint_every == 0 {
            let model = trainer.finalize()?;
            let mut correct = 0usize;
            for (tx, &ty) in data.test.features.iter().zip(&data.test.labels) {
                if model.predict(&encoder.encode(tx)?)? == ty {
                    correct += 1;
                }
            }
            println!(
                "  after {:>5} samples: test accuracy {:.1}%",
                i + 1,
                100.0 * correct as f64 / data.test.len() as f64
            );
        }
    }

    // Deploy: compress the single-pass model. (The full classifier picks
    // the group size by validation; here we compress pairwise, which is
    // safe for the online model's tightly clustered classes.)
    let model = trainer.finalize()?;
    let compressed = CompressedModel::compress(
        &model,
        &CompressionConfig::new().with_max_classes_per_vector(2),
    )?;
    let (mut correct, mut correct_unc) = (0usize, 0usize);
    for (tx, &ty) in data.test.features.iter().zip(&data.test.labels) {
        let h = encoder.encode(tx)?;
        if compressed.predict(&h)? == ty {
            correct += 1;
        }
        if model.predict(&h)? == ty {
            correct_unc += 1;
        }
    }
    println!(
        "\ncompressed single-pass model: {:.1}% test accuracy (uncompressed {:.1}%), {} bytes ({} vectors)",
        100.0 * correct as f64 / data.test.len() as f64,
        100.0 * correct_unc as f64 / data.test.len() as f64,
        compressed.size_bytes(),
        compressed.n_vectors()
    );
    Ok(())
}
