//! Quickstart: train and query a LookHD classifier in a few lines.
//!
//! Run: `cargo run --release --example quickstart`

use lookhd_paper::hdc::HdcError;
use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::{LookHdClassifier, LookHdConfig};

fn main() -> Result<(), HdcError> {
    // A toy sensor problem: 12 features, three regimes (low / mid / high).
    let mut features = Vec::new();
    let mut labels = Vec::new();
    for i in 0..90 {
        let class = i % 3;
        let base = [0.15, 0.5, 0.85][class];
        let row: Vec<f64> = (0..12)
            .map(|j| base + 0.03 * ((i * 7 + j * 13) % 10) as f64 / 10.0)
            .collect();
        features.push(row);
        labels.push(class);
    }

    // LookHD with the paper's defaults scaled down: D = 1024, q = 4
    // equalized levels, chunks of r = 5, compressed model, retraining.
    let config = LookHdConfig::new().with_dim(1024).with_retrain_epochs(5);
    let classifier = LookHdClassifier::fit(&config, &features, &labels)?;

    let probe_low = vec![0.16; 12];
    let probe_high = vec![0.86; 12];
    println!(
        "low-regime probe  -> class {}",
        classifier.predict(&probe_low)?
    );
    println!(
        "high-regime probe -> class {}",
        classifier.predict(&probe_high)?
    );

    println!(
        "training accuracy: {:.1}%",
        classifier.evaluate(&features, &labels)? * 100.0
    );
    println!(
        "model: {} classes compressed into {} hypervector(s), {} bytes \
         (uncompressed: {} bytes)",
        classifier.compressed().n_classes(),
        classifier.compressed().n_vectors(),
        classifier.compressed().size_bytes(),
        classifier.model().size_bytes(),
    );
    println!(
        "lookup encoder: {} chunks of r = {} features",
        classifier.encoder().layout().n_chunks(),
        classifier.encoder().layout().r(),
    );
    Ok(())
}
