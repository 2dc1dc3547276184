//! Single-pass online training (the OnlineHD regime, the paper's ref \[13\]).
//!
//! Plain bundling weights every sample equally, so a single pass produces a
//! blurry model that needs retraining. Online training instead scales each
//! sample's contribution by how *novel* it is to the current model:
//!
//! ```text
//! δ = cos(H, C_best)
//! C_label    += lr · (1 − δ_label) · H
//! C_mispred  -= lr · (1 − δ_mispred) · H      (only when mispredicted)
//! ```
//!
//! One pass then approaches the quality of bundle-plus-retrain — the
//! "single-pass or few-pass training" capability §VI-F attributes to HDC
//! on devices that cannot afford epochs. The trained model drops into the
//! same [`ClassModel`] / compression pipeline as the counter trainer.

use hdc::classify::argmax_margin;
use hdc::encoding::Encode;
use hdc::hv::DenseHv;
use hdc::model::ClassModel;
use hdc::{HdcError, Result};

use crate::classifier::{LookHdClassifier, LookHdConfig};
use crate::compress::CompressedModel;
use crate::encoder::LookupEncoder;
use crate::score_kernel::{build_kernel, KernelSpec, ScoreKernel};
use crate::trainer::CounterTrainer;

/// Learning rate of the novelty-scaled update (OnlineHD's).
const LEARNING_RATE: f64 = 1.0;

/// Fixed-point scale used when rounding the float model to integers;
/// keeps integer resolution well above the update granularity.
const OUTPUT_SCALE: f64 = 64.0;

/// Incremental single-pass trainer over any [`Encode`] implementation.
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    classes: Vec<Vec<f64>>,
    norms: Vec<f64>,
    seen: usize,
}

impl OnlineTrainer {
    /// Creates a zeroed trainer for `n_classes` classes at dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] on zero classes/dimension.
    pub fn new(n_classes: usize, dim: usize) -> Result<Self> {
        if n_classes == 0 {
            return Err(HdcError::invalid_config("k", "need at least one class"));
        }
        if dim == 0 {
            return Err(HdcError::invalid_config(
                "dim",
                "dimension must be positive",
            ));
        }
        Ok(Self {
            classes: vec![vec![0.0; dim]; n_classes],
            norms: vec![0.0; n_classes],
            seen: 0,
        })
    }

    /// Number of samples consumed so far.
    pub fn samples_seen(&self) -> usize {
        self.seen
    }

    /// Consumes one encoded sample with the novelty-scaled update.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] / [`HdcError::DimensionMismatch`]
    /// on bad arguments.
    pub fn observe(&mut self, encoded: &DenseHv, label: usize) -> Result<()> {
        if label >= self.classes.len() {
            return Err(HdcError::UnknownClass {
                label,
                n_classes: self.classes.len(),
            });
        }
        if encoded.dim() != self.classes[0].len() {
            return Err(HdcError::DimensionMismatch {
                expected: self.classes[0].len(),
                actual: encoded.dim(),
            });
        }
        let h_norm = encoded.norm();
        let cosines: Vec<f64> = (0..self.classes.len())
            .map(|c| self.cosine_to(c, encoded, h_norm))
            .collect();
        let pred = argmax_margin(&cosines).0;
        // Pull toward the true class, scaled by novelty.
        let alpha = LEARNING_RATE * (1.0 - cosines[label]).max(0.0);
        self.add_scaled(label, encoded, alpha);
        // Push away from the confused class.
        if pred != label {
            let beta = LEARNING_RATE * (1.0 - cosines[pred]).max(0.0);
            self.add_scaled(pred, encoded, -beta);
        }
        self.seen += 1;
        Ok(())
    }

    fn cosine_to(&self, class: usize, encoded: &DenseHv, h_norm: f64) -> f64 {
        let n = self.norms[class];
        if n == 0.0 || h_norm == 0.0 {
            return 0.0;
        }
        let dot: f64 = self.classes[class]
            .iter()
            .zip(encoded.as_slice())
            .map(|(&c, &h)| c * h as f64)
            .sum();
        dot / (n * h_norm)
    }

    fn add_scaled(&mut self, class: usize, encoded: &DenseHv, alpha: f64) {
        if alpha == 0.0 {
            return;
        }
        let row = &mut self.classes[class];
        for (c, &h) in row.iter_mut().zip(encoded.as_slice()) {
            *c += alpha * h as f64;
        }
        self.norms[class] = row.iter().map(|c| c * c).sum::<f64>().sqrt();
    }

    /// Finalizes the float model into an integer [`ClassModel`]. Classes
    /// are normalized to a common fixed-point scale so downstream
    /// compression/retraining behave as for the other trainers.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] if no samples were observed.
    pub fn finalize(&self) -> Result<ClassModel> {
        if self.seen == 0 {
            return Err(HdcError::invalid_dataset(
                "cannot finalize with zero observed samples",
            ));
        }
        let max_norm = self.norms.iter().cloned().fold(0.0f64, f64::max);
        let scale = if max_norm > 0.0 {
            OUTPUT_SCALE * (self.classes[0].len() as f64).sqrt() / max_norm
        } else {
            1.0
        };
        let classes = self
            .classes
            .iter()
            .map(|row| DenseHv::from_vec(row.iter().map(|&c| (c * scale).round() as i32).collect()))
            .collect();
        ClassModel::from_classes(classes)
    }

    /// One-shot convenience: stream every `(features, label)` pair through
    /// `encoder` and finalize.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for empty or mismatched inputs,
    /// plus per-sample errors.
    pub fn fit<E: Encode>(
        encoder: &E,
        features: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
    ) -> Result<ClassModel> {
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
        let mut trainer = Self::new(n_classes, encoder.dim())?;
        for (f, &y) in features.iter().zip(labels) {
            let h = encoder.encode(f)?;
            trainer.observe(&h, y)?;
        }
        trainer.finalize()
    }
}

/// Streaming counter trainer: the exact-arithmetic sibling of
/// [`OnlineTrainer`], built for live serving.
///
/// The paper's counter training (§III-D) is naturally incremental —
/// folding one labeled example is a handful of counter increments, and
/// counter addition is associative and commutative. A
/// `StreamingTrainer` therefore guarantees, *by construction*, that N
/// examples streamed one at a time (in any order, across any shard
/// split later [`merge`]d) produce counters bit-identical to a single
/// batch [`LookHdClassifier::fit`] on the same data — and
/// [`materialize`] runs the identical finalize → compress → kernel
/// pipeline as batch fit, so the materialized classifier is
/// bit-identical too (pinned by `tests/online_differential.rs`).
///
/// Because no training samples are stored, the sample-dependent fit
/// stages (compressed retraining, and the validation split with its
/// adaptive group shrinking) cannot run; the trainer's config is
/// normalized to disable them, and a batch fit under the same normalized
/// config runs the exact same pipeline tail.
///
/// [`merge`]: StreamingTrainer::merge
/// [`materialize`]: StreamingTrainer::materialize
#[derive(Debug, Clone)]
pub struct StreamingTrainer {
    encoder: LookupEncoder,
    config: LookHdConfig,
    trainer: CounterTrainer,
}

impl StreamingTrainer {
    /// Creates a streaming trainer over a fitted encoder.
    ///
    /// Only `config.compression`, `config.kernel`, and `config.seed` are
    /// consumed (the encoder is already built); the sample-dependent
    /// knobs (`retrain_epochs`, `validation_fraction`) are forced off —
    /// see the type docs.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `n_classes == 0`.
    pub fn new(encoder: LookupEncoder, config: LookHdConfig, n_classes: usize) -> Result<Self> {
        let mut config = config;
        config.retrain_epochs = 0;
        config.validation_fraction = 0.0;
        let trainer = CounterTrainer::new(&encoder, n_classes)?;
        Ok(Self {
            encoder,
            config,
            trainer,
        })
    }

    /// Creates a streaming trainer that continues from a trained
    /// classifier's encoder, compression knobs, and kernel choice —
    /// the serve path's online-training entry point (the artifact is the
    /// only configuration a server has). Counters start from zero: the
    /// first materialized version reflects only streamed feedback.
    ///
    /// # Errors
    ///
    /// Propagates trainer-construction errors.
    pub fn from_classifier(clf: &LookHdClassifier) -> Result<Self> {
        let kernel = match clf.kernel() {
            ScoreKernel::Dense => KernelSpec::dense(),
            ScoreKernel::Lut(_) => KernelSpec::lut(),
        };
        let config = LookHdConfig::new()
            .with_compression(clf.compressed().compression_config().clone())
            .with_kernel(kernel)
            .with_seed(clf.seed());
        Self::new(clf.encoder().clone(), config, clf.model().n_classes())
    }

    /// Folds one labeled example into the live counters — the exact
    /// arithmetic of batch fit's counter pass, one sample at a time.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (wrong arity, non-finite values) and
    /// an out-of-range label.
    pub fn observe(&mut self, features: &[f64], label: usize) -> Result<()> {
        self.trainer.observe(&self.encoder, features, label)
    }

    /// Folds another trainer's counters into this one (shard merge).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on layout or class-count
    /// disagreement.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        self.trainer.merge(&other.trainer)
    }

    /// Total examples folded so far.
    pub fn observed(&self) -> u64 {
        (0..self.trainer.n_classes())
            .map(|c| self.trainer.samples_seen(c))
            .sum()
    }

    /// Examples folded for one class.
    pub fn observed_for(&self, class: usize) -> u64 {
        if class < self.trainer.n_classes() {
            self.trainer.samples_seen(class)
        } else {
            0
        }
    }

    /// Number of classes the trainer folds into.
    pub fn n_classes(&self) -> usize {
        self.trainer.n_classes()
    }

    /// The live counters (compared exactly by the differential tests).
    pub fn counters(&self) -> &CounterTrainer {
        &self.trainer
    }

    /// The normalized configuration versions are materialized under.
    pub fn config(&self) -> &LookHdConfig {
        &self.config
    }

    /// The fitted encoder every fold and materialization goes through.
    pub fn encoder(&self) -> &LookupEncoder {
        &self.encoder
    }

    /// Materializes the current counters into a full classifier — the
    /// identical pipeline tail batch fit runs under the normalized
    /// config: finalize counters, refresh norms, compress, build the
    /// scoring kernel. Deterministic given the counters, so repeated
    /// calls without intervening folds return bit-identical models.
    ///
    /// This is the off-hot-path step of a model refresh: the serve
    /// trainer thread calls it and atomically swaps the result in.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] when no examples have been
    /// folded, plus compression/kernel build errors.
    pub fn materialize(&self) -> Result<LookHdClassifier> {
        let _span = obs::span("online_materialize");
        let mut model = self.trainer.finalize(&self.encoder)?;
        model.refresh_norms();
        let compressed = CompressedModel::compress(&model, &self.config.compression)?;
        let kernel = build_kernel(&self.encoder, &compressed, &self.config.kernel)?;
        Ok(LookHdClassifier::from_parts(
            self.encoder.clone(),
            model,
            compressed,
            kernel,
            self.config.seed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::levels::LevelMemory;
    use hdc::quantize::{Quantization, Quantizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::chunking::ChunkLayout;
    use crate::encoder::LookupEncoder;
    use crate::trainer::CounterTrainer;

    fn encoder(n: usize, q: usize, dim: usize, seed: u64) -> LookupEncoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, 5, q).unwrap();
        LookupEncoder::new(layout, &levels, quantizer, seed).unwrap()
    }

    /// Hard overlapping dataset: two prototype vectors with heavy noise.
    fn hard_dataset(n: usize, per_class: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, p) in protos.iter().enumerate() {
            for _ in 0..per_class {
                xs.push(
                    p.iter()
                        .map(|&v| (v + rng.gen_range(-0.35f64..0.35)).clamp(0.0, 1.0))
                        .collect(),
                );
                ys.push(c);
            }
        }
        (xs, ys)
    }

    fn accuracy(model: &ClassModel, enc: &LookupEncoder, xs: &[Vec<f64>], ys: &[usize]) -> f64 {
        let correct = xs
            .iter()
            .zip(ys)
            .filter(|(x, &y)| model.predict(&enc.encode(x).unwrap()).unwrap() == y)
            .count();
        correct as f64 / xs.len() as f64
    }

    #[test]
    fn online_single_pass_beats_plain_bundling_on_hard_data() {
        // Averaged over dataset seeds: a single split is too noisy for the
        // "matches or beats" claim to be a property of the algorithm.
        let enc = encoder(40, 4, 2048, 1);
        let (mut sum_bundled, mut sum_online) = (0.0, 0.0);
        let trials = 5;
        for seed in 0..trials {
            let (xs, ys) = hard_dataset(40, 60, 2 + 2 * seed);
            let (txs, tys) = hard_dataset(40, 20, 3 + 2 * seed);
            let bundled = CounterTrainer::fit(&enc, &xs, &ys, 3).unwrap();
            let online = OnlineTrainer::fit(&enc, &xs, &ys, 3).unwrap();
            sum_bundled += accuracy(&bundled, &enc, &txs, &tys);
            sum_online += accuracy(&online, &enc, &txs, &tys);
        }
        let acc_bundled = sum_bundled / trials as f64;
        let acc_online = sum_online / trials as f64;
        assert!(
            acc_online + 0.02 >= acc_bundled,
            "online ({acc_online:.3}) should match or beat single-pass bundling ({acc_bundled:.3})"
        );
    }

    #[test]
    fn online_model_learns_at_all() {
        let enc = encoder(40, 4, 1024, 4);
        let (xs, ys) = hard_dataset(40, 40, 5);
        let model = OnlineTrainer::fit(&enc, &xs, &ys, 3).unwrap();
        let acc = accuracy(&model, &enc, &xs, &ys);
        assert!(acc > 0.6, "train accuracy too low: {acc}");
    }

    #[test]
    fn incremental_observe_matches_fit() {
        let enc = encoder(20, 2, 512, 6);
        let (xs, ys) = hard_dataset(20, 10, 7);
        let mut t = OnlineTrainer::new(3, 512).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            t.observe(&enc.encode(x).unwrap(), y).unwrap();
        }
        assert_eq!(t.samples_seen(), xs.len());
        let a = t.finalize().unwrap();
        let b = OnlineTrainer::fit(&enc, &xs, &ys, 3).unwrap();
        for c in 0..3 {
            assert_eq!(a.class(c), b.class(c));
        }
    }

    #[test]
    fn novelty_scaling_shrinks_updates_for_familiar_samples() {
        let enc = encoder(20, 2, 512, 8);
        let x = vec![0.5; 20];
        let h = enc.encode(&x).unwrap();
        let mut t = OnlineTrainer::new(2, 512).unwrap();
        t.observe(&h, 0).unwrap();
        let after_first = t.classes[0].clone();
        t.observe(&h, 0).unwrap();
        let delta_second: f64 = t.classes[0]
            .iter()
            .zip(&after_first)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let delta_first: f64 = after_first.iter().map(|v| v.abs()).sum();
        assert!(
            delta_second < 0.2 * delta_first,
            "repeat sample should barely move the model: {delta_second} vs {delta_first}"
        );
    }

    #[test]
    fn validates_configuration_and_inputs() {
        assert!(OnlineTrainer::new(0, 10).is_err());
        assert!(OnlineTrainer::new(2, 0).is_err());
        let mut t = OnlineTrainer::new(2, 10).unwrap();
        assert!(t.observe(&DenseHv::zeros(5), 0).is_err());
        assert!(t.observe(&DenseHv::zeros(10), 7).is_err());
        assert!(t.finalize().is_err());
        let enc = encoder(20, 2, 128, 9);
        assert!(OnlineTrainer::fit(&enc, &[], &[], 2).is_err());
    }
}
