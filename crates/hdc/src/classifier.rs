//! The end-to-end baseline HDC classifier (the paper's comparison point).
//!
//! [`HdcConfig`] collects the hyperparameters of §II (dimensionality `D`,
//! quantization levels `q`, quantization rule, retraining epochs, RNG
//! seed); [`HdcClassifier::fit`] runs the full §II pipeline:
//! fit the quantizer, generate level hypervectors, encode the training set,
//! bundle class hypervectors, and retrain.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::classify::{Classifier, FitClassifier};
use crate::encoding::{Encode, PermutationEncoder};
use crate::error::{HdcError, Result};
use crate::hv::DenseHv;
use crate::levels::LevelMemory;
use crate::model::ClassModel;
use crate::quantize::{Quantization, Quantizer};
use crate::train::{initial_fit, retrain, TrainReport};

/// Hyperparameters of the baseline HDC classifier.
///
/// Construct with [`HdcConfig::new`] and chain the `with_*` setters.
#[derive(Debug, Clone, PartialEq)]
pub struct HdcConfig {
    /// Hypervector dimensionality `D` (paper default: 2000 for efficiency
    /// experiments, up to 10,000 for accuracy).
    pub dim: usize,
    /// Number of quantization levels `q`.
    pub q: usize,
    /// Quantization rule (the baseline uses [`Quantization::Linear`]).
    pub quantization: Quantization,
    /// Maximum retraining epochs (the paper uses ~10; 0 disables).
    pub retrain_epochs: usize,
    /// RNG seed for reproducible level/position hypervectors.
    pub seed: u64,
}

impl HdcConfig {
    /// Baseline defaults: `D = 2000`, `q = 16` linear levels, 10 retraining
    /// epochs (matching the paper's baseline setup).
    pub fn new() -> Self {
        Self {
            dim: 2000,
            q: 16,
            quantization: Quantization::Linear,
            retrain_epochs: 10,
            seed: 0x10_0c_4d,
        }
    }

    /// Sets the hypervector dimensionality `D`.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Sets the number of quantization levels `q`.
    pub fn with_q(mut self, q: usize) -> Self {
        self.q = q;
        self
    }

    /// Sets the quantization rule.
    pub fn with_quantization(mut self, quantization: Quantization) -> Self {
        self.quantization = quantization;
        self
    }

    /// Sets the maximum number of retraining epochs.
    pub fn with_retrain_epochs(mut self, retrain_epochs: usize) -> Self {
        self.retrain_epochs = retrain_epochs;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for HdcConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained baseline HDC classifier.
///
/// Construct with [`FitClassifier::fit`]; run inference through the
/// [`Classifier`] trait.
///
/// # Examples
///
/// ```
/// use hdc::classifier::{HdcClassifier, HdcConfig};
/// use hdc::{Classifier, FitClassifier};
///
/// // Two 4-feature classes: low values vs high values.
/// let xs: Vec<Vec<f64>> = (0..20)
///     .map(|i| vec![if i % 2 == 0 { 0.1 } else { 0.9 }; 4])
///     .collect();
/// let ys: Vec<usize> = (0..20).map(|i| i % 2).collect();
/// let config = HdcConfig::new().with_dim(256).with_q(4);
/// let clf = HdcClassifier::fit(&config, &xs, &ys)?;
/// assert_eq!(clf.predict(&[0.1, 0.1, 0.1, 0.1])?, 0);
/// assert_eq!(clf.predict(&[0.9, 0.9, 0.9, 0.9])?, 1);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HdcClassifier {
    encoder: PermutationEncoder,
    model: ClassModel,
    report: TrainReport,
}

impl HdcClassifier {
    /// Builds the encoder and encodes the training set (shared with
    /// [`FitClassifier::fit`]; exposed via `fit` only).
    fn prepare(
        config: &HdcConfig,
        features: &[Vec<f64>],
        labels: &[usize],
    ) -> Result<(PermutationEncoder, Vec<DenseHv>, usize)> {
        if features.is_empty() {
            return Err(HdcError::invalid_dataset("cannot train on zero samples"));
        }
        if features.len() != labels.len() {
            return Err(HdcError::invalid_dataset(format!(
                "{} samples but {} labels",
                features.len(),
                labels.len()
            )));
        }
        let n_features = features[0].len();
        if features.iter().any(|f| f.len() != n_features) {
            return Err(HdcError::invalid_dataset("ragged feature matrix"));
        }
        let n_classes = labels.iter().max().map_or(0, |m| m + 1);
        let all_values: Vec<f64> = features.iter().flatten().copied().collect();
        let quantizer = Quantizer::fit(config.quantization, &all_values, config.q)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let levels = LevelMemory::generate(config.dim, config.q, &mut rng)?;
        let encoder = PermutationEncoder::new(levels, quantizer, n_features)?;
        let encoded = encoder.encode_batch(features)?;
        Ok((encoder, encoded, n_classes))
    }

    /// The trained class model.
    pub fn model(&self) -> &ClassModel {
        &self.model
    }

    /// The fitted encoder (quantizer + level memory).
    pub fn encoder(&self) -> &PermutationEncoder {
        &self.encoder
    }

    /// The retraining report.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Encodes a query without classifying it (for inspection/benchmarks).
    ///
    /// # Errors
    ///
    /// Returns an encoding error for a wrong-arity feature vector.
    pub fn encode(&self, features: &[f64]) -> Result<DenseHv> {
        self.encoder.encode(features)
    }
}

impl Classifier for HdcClassifier {
    fn num_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn predict(&self, features: &[f64]) -> Result<usize> {
        let h = self.encoder.encode(features)?;
        self.model.predict(&h)
    }

    fn class_scores(&self, features: &[f64]) -> Result<Option<Vec<f64>>> {
        let h = self.encoder.encode(features)?;
        self.model.scores(&h).map(Some)
    }
}

impl FitClassifier for HdcClassifier {
    type Config = HdcConfig;

    /// Trains a classifier on `features`/`labels` with the given config.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for an empty or ragged dataset
    /// and [`HdcError::InvalidConfig`] for invalid hyperparameters.
    fn fit(config: &HdcConfig, features: &[Vec<f64>], labels: &[usize]) -> Result<Self> {
        let (encoder, encoded, n_classes) = Self::prepare(config, features, labels)?;
        let mut model = initial_fit(&encoded, labels, n_classes)?;
        let report = retrain(&mut model, &encoded, labels, config.retrain_epochs)?;
        model.refresh_norms();
        Ok(Self {
            encoder,
            model,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Three well-separated Gaussian blobs in 12 feature dimensions.
    fn blobs(per_class: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [0.2, 0.5, 0.8];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, &center) in centers.iter().enumerate() {
            for _ in 0..per_class {
                let row: Vec<f64> = (0..12)
                    .map(|j| center + 0.3 * ((j % 3) as f64 / 3.0) + rng.gen_range(-0.05..0.05))
                    .collect();
                xs.push(row);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn fit_and_score_separable_data() {
        let (xs, ys) = blobs(30, 1);
        let config = HdcConfig::new()
            .with_dim(512)
            .with_q(8)
            .with_retrain_epochs(5);
        let clf = HdcClassifier::fit(&config, &xs, &ys).unwrap();
        let acc = clf.evaluate(&xs, &ys).unwrap();
        assert!(acc > 0.9, "train accuracy too low: {acc}");
        assert_eq!(clf.num_classes(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blobs(10, 2);
        let config = HdcConfig::new().with_dim(256).with_q(4).with_seed(9);
        let a = HdcClassifier::fit(&config, &xs, &ys).unwrap();
        let b = HdcClassifier::fit(&config, &xs, &ys).unwrap();
        let preds_a = a.predict_batch(&xs).unwrap();
        let preds_b = b.predict_batch(&xs).unwrap();
        assert_eq!(preds_a, preds_b);
    }

    #[test]
    fn rejects_bad_datasets() {
        let config = HdcConfig::new().with_dim(128).with_q(2);
        assert!(HdcClassifier::fit(&config, &[], &[]).is_err());
        assert!(HdcClassifier::fit(&config, &[vec![1.0]], &[0, 1]).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(HdcClassifier::fit(&config, &ragged, &[0, 1]).is_err());
    }

    #[test]
    fn config_builder_chains() {
        let c = HdcConfig::new()
            .with_dim(1000)
            .with_q(4)
            .with_quantization(Quantization::Equalized)
            .with_retrain_epochs(3)
            .with_seed(7);
        assert_eq!(c.dim, 1000);
        assert_eq!(c.q, 4);
        assert_eq!(c.quantization, Quantization::Equalized);
        assert_eq!(c.retrain_epochs, 3);
        assert_eq!(c.seed, 7);
        assert_eq!(HdcConfig::default(), HdcConfig::new());
    }

    #[test]
    fn report_reflects_retraining() {
        let (xs, ys) = blobs(20, 3);
        let config = HdcConfig::new()
            .with_dim(256)
            .with_q(4)
            .with_retrain_epochs(8);
        let clf = HdcClassifier::fit(&config, &xs, &ys).unwrap();
        assert!(clf.report().epochs_run() >= 1);
        assert!(clf.report().final_accuracy() > 0.8);
    }

    #[test]
    fn predict_on_unseen_neighbourhood_generalizes() {
        let (xs, ys) = blobs(30, 4);
        let config = HdcConfig::new().with_dim(512).with_q(8);
        let clf = HdcClassifier::fit(&config, &xs, &ys).unwrap();
        let (test_xs, test_ys) = blobs(10, 99);
        let acc = clf.evaluate(&test_xs, &test_ys).unwrap();
        assert!(acc > 0.8, "test accuracy too low: {acc}");
    }

    #[test]
    fn encode_exposes_query_hypervector() {
        let (xs, ys) = blobs(5, 5);
        let config = HdcConfig::new()
            .with_dim(128)
            .with_q(2)
            .with_retrain_epochs(0);
        let clf = HdcClassifier::fit(&config, &xs, &ys).unwrap();
        let h = clf.encode(&xs[0]).unwrap();
        assert_eq!(h.dim(), 128);
        assert_eq!(
            clf.model().predict(&h).unwrap(),
            clf.predict(&xs[0]).unwrap()
        );
    }
}
