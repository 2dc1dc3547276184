//! The multi-layer perceptron: configuration, SGD training, inference.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use hdc::{Classifier, FitClassifier, HdcError, Result};

use crate::layer::{softmax, softmax_ce_grad, Dense};

/// MLP hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer widths (the paper's FPGA comparison uses one hidden
    /// layer; 512 is a typical size for these feature widths).
    pub hidden: Vec<usize>,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// RNG seed (init + shuffling).
    pub seed: u64,
}

impl MlpConfig {
    /// Defaults: one 512-unit hidden layer, lr 0.01, 20 epochs.
    pub fn new() -> Self {
        Self {
            hidden: vec![512],
            learning_rate: 0.01,
            epochs: 20,
            seed: 0x41_1F,
        }
    }

    /// Sets the hidden-layer widths.
    pub fn with_hidden(mut self, hidden: Vec<usize>) -> Self {
        self.hidden = hidden;
        self
    }

    /// Sets the learning rate.
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained multi-layer perceptron classifier.
///
/// # Examples
///
/// ```
/// use hdc::{Classifier, FitClassifier};
/// use lookhd_mlp::{Mlp, MlpConfig};
///
/// // XOR-ish toy problem.
/// let xs = vec![
///     vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0],
/// ];
/// let ys = vec![0, 1, 1, 0];
/// let config = MlpConfig::new()
///     .with_hidden(vec![16])
///     .with_epochs(500)
///     .with_learning_rate(0.1);
/// let mlp = Mlp::fit(&config, &xs, &ys)?;
/// assert_eq!(mlp.predict(&[1.0, 0.0])?, 1);
/// assert_eq!(mlp.predict(&[1.0, 1.0])?, 0);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    fn fit_impl(config: &MlpConfig, features: &[Vec<f64>], labels: &[usize]) -> Result<Self> {
        if features.is_empty() {
            return Err(HdcError::invalid_dataset("cannot train on zero samples"));
        }
        if features.len() != labels.len() {
            return Err(HdcError::invalid_dataset(format!(
                "{} feature rows but {} labels",
                features.len(),
                labels.len()
            )));
        }
        let n_in = features[0].len();
        if features.iter().any(|f| f.len() != n_in) {
            return Err(HdcError::invalid_dataset("ragged feature matrix"));
        }
        if config.learning_rate <= 0.0 || !config.learning_rate.is_finite() {
            return Err(HdcError::invalid_config(
                "learning_rate",
                "must be positive and finite",
            ));
        }
        if config.hidden.contains(&0) {
            return Err(HdcError::invalid_config(
                "hidden",
                "hidden layers need at least one unit",
            ));
        }
        let n_out = labels.iter().max().map_or(1, |m| m + 1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut layers = Vec::new();
        let mut width = n_in;
        for &h in &config.hidden {
            layers.push(Dense::new(width, h, true, &mut rng));
            width = h;
        }
        layers.push(Dense::new(width, n_out, false, &mut rng));
        let mut mlp = Self { layers };
        let mut order: Vec<usize> = (0..features.len()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                mlp.train_step(&features[i], labels[i], config.learning_rate);
            }
        }
        Ok(mlp)
    }

    fn train_step(&mut self, x: &[f64], y: usize, lr: f64) {
        // Forward, keeping every activation.
        let mut acts: Vec<Vec<f64>> = vec![x.to_vec()];
        for layer in &self.layers {
            let out = layer.forward(acts.last().expect("non-empty"));
            acts.push(out);
        }
        // Backward.
        let logits = acts.last().expect("non-empty");
        let mut grad = softmax_ce_grad(logits, y);
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            grad = layer.backward(&acts[l], &acts[l + 1], &grad, lr);
        }
    }

    /// Class probabilities for one input.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on an input-width mismatch.
    pub fn probabilities(&self, x: &[f64]) -> Result<Vec<f64>> {
        let expected = self.layers[0].n_in();
        if x.len() != expected {
            return Err(HdcError::DimensionMismatch {
                expected,
                actual: x.len(),
            });
        }
        let mut h = x.to_vec();
        for layer in &self.layers {
            h = layer.forward(&h);
        }
        Ok(softmax(&h))
    }

    /// Total trainable parameters.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Dense::n_params).sum()
    }

    /// The layer widths, input first: `[n_in, hidden…, n_out]`.
    pub fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.layers.iter().map(Dense::n_in).collect();
        w.push(self.layers.last().expect("at least one layer").n_out());
        w
    }
}

impl Classifier for Mlp {
    fn num_classes(&self) -> usize {
        self.layers.last().expect("at least one layer").n_out()
    }

    fn predict(&self, features: &[f64]) -> Result<usize> {
        let p = self.probabilities(features)?;
        let mut best = 0;
        for (i, &v) in p.iter().enumerate() {
            if v > p[best] {
                best = i;
            }
        }
        Ok(best)
    }

    fn class_scores(&self, features: &[f64]) -> Result<Option<Vec<f64>>> {
        self.probabilities(features).map(Some)
    }
}

impl FitClassifier for Mlp {
    type Config = MlpConfig;

    /// Trains an MLP with per-sample SGD.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for an empty, ragged, or
    /// mismatched dataset and [`HdcError::InvalidConfig`] for invalid
    /// hyperparameters.
    fn fit(config: &MlpConfig, features: &[Vec<f64>], labels: &[usize]) -> Result<Self> {
        Self::fit_impl(config, features, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn blobs(n: usize, k: usize, per_class: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, p) in protos.iter().enumerate() {
            for _ in 0..per_class {
                xs.push(p.iter().map(|&v| v + rng.gen_range(-0.05..0.05)).collect());
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let (xs, ys) = blobs(10, 3, 30, 1);
        let config = MlpConfig::new().with_hidden(vec![32]).with_epochs(30);
        let mlp = Mlp::fit(&config, &xs, &ys).unwrap();
        assert!(mlp.evaluate(&xs, &ys).unwrap() > 0.95);
    }

    #[test]
    fn learns_xor_nonlinearity() {
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0, 1, 1, 0];
        let config = MlpConfig::new()
            .with_hidden(vec![16])
            .with_epochs(800)
            .with_learning_rate(0.1)
            .with_seed(3);
        let mlp = Mlp::fit(&config, &xs, &ys).unwrap();
        assert_eq!(mlp.evaluate(&xs, &ys).unwrap(), 1.0, "XOR not learned");
    }

    #[test]
    fn deterministic_per_seed() {
        let (xs, ys) = blobs(6, 2, 10, 2);
        let config = MlpConfig::new()
            .with_hidden(vec![8])
            .with_epochs(5)
            .with_seed(7);
        let a = Mlp::fit(&config, &xs, &ys).unwrap();
        let b = Mlp::fit(&config, &xs, &ys).unwrap();
        assert_eq!(a.predict_batch(&xs).unwrap(), b.predict_batch(&xs).unwrap());
    }

    #[test]
    fn probabilities_are_a_distribution() {
        let (xs, ys) = blobs(4, 3, 5, 4);
        let mlp = Mlp::fit(
            &MlpConfig::new().with_hidden(vec![8]).with_epochs(2),
            &xs,
            &ys,
        )
        .unwrap();
        let p = mlp.probabilities(&xs[0]).unwrap();
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
        assert_eq!(mlp.num_classes(), 3);
    }

    #[test]
    fn widths_and_params_reflect_architecture() {
        let (xs, ys) = blobs(10, 4, 5, 5);
        let mlp = Mlp::fit(
            &MlpConfig::new().with_hidden(vec![32, 16]).with_epochs(1),
            &xs,
            &ys,
        )
        .unwrap();
        assert_eq!(mlp.widths(), vec![10, 32, 16, 4]);
        assert_eq!(mlp.n_params(), 10 * 32 + 32 + 32 * 16 + 16 + 16 * 4 + 4);
    }

    #[test]
    fn rejects_bad_data_and_config() {
        assert!(matches!(
            Mlp::fit(&MlpConfig::new(), &[], &[]),
            Err(HdcError::InvalidDataset { .. })
        ));
        let xs = vec![vec![0.0, 1.0], vec![1.0]];
        assert!(Mlp::fit(&MlpConfig::new(), &xs, &[0, 1]).is_err());
        let xs = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(Mlp::fit(&MlpConfig::new(), &xs, &[0]).is_err());
        assert!(Mlp::fit(&MlpConfig::new().with_learning_rate(0.0), &xs, &[0, 1]).is_err());
        assert!(Mlp::fit(&MlpConfig::new().with_hidden(vec![8, 0]), &xs, &[0, 1]).is_err());
    }

    #[test]
    fn predict_rejects_wrong_arity() {
        let (xs, ys) = blobs(6, 2, 5, 8);
        let mlp = Mlp::fit(
            &MlpConfig::new().with_hidden(vec![8]).with_epochs(1),
            &xs,
            &ys,
        )
        .unwrap();
        assert!(matches!(
            mlp.predict(&[0.0; 3]),
            Err(HdcError::DimensionMismatch {
                expected: 6,
                actual: 3
            })
        ));
    }

    #[test]
    fn config_builder_round_trips() {
        let c = MlpConfig::new()
            .with_hidden(vec![64])
            .with_learning_rate(0.5)
            .with_epochs(3)
            .with_seed(9);
        assert_eq!(c.hidden, vec![64]);
        assert_eq!(c.learning_rate, 0.5);
        assert_eq!(c.epochs, 3);
        assert_eq!(c.seed, 9);
        assert_eq!(MlpConfig::default(), MlpConfig::new());
    }
}
