//! Counter-based training (§III-D): stream samples as counter increments,
//! materialize class hypervectors once at the end.

use hdc::hv::DenseHv;
use hdc::model::ClassModel;
use hdc::{HdcError, Result};

use crate::counters::ChunkCounters;
use crate::encoder::LookupEncoder;

/// Trains a [`ClassModel`] with LookHD's counter factorization.
///
/// The result is **bit-exact** with bundling every encoded sample
/// (`C_i = Σ_{j∈class_i} H_j`), but per-sample work is just quantization and
/// counter increments — no `D`-dimensional arithmetic (the source of the
/// paper's training speedup).
#[derive(Debug, Clone)]
pub struct CounterTrainer {
    counters: ChunkCounters,
}

impl CounterTrainer {
    /// Creates a trainer for `n_classes` classes over the encoder's layout.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `n_classes == 0`.
    pub fn new(encoder: &LookupEncoder, n_classes: usize) -> Result<Self> {
        Ok(Self {
            counters: ChunkCounters::new(*encoder.layout(), n_classes)?,
        })
    }

    /// Streams one training sample: quantize → chunk addresses → counter
    /// increments. No hypervector arithmetic happens here.
    ///
    /// # Errors
    ///
    /// Propagates encoding and counter errors.
    pub fn observe(
        &mut self,
        encoder: &LookupEncoder,
        features: &[f64],
        label: usize,
    ) -> Result<()> {
        let addrs = encoder.addresses(features)?;
        obs::counter("counter_train.samples", 1);
        self.counters.observe(label, &addrs)
    }

    /// Folds another trainer's counters into this one. Counter addition
    /// is associative and commutative, so sharded observation followed by
    /// a merge is bit-identical to serial observation in any order.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on layout or class-count
    /// disagreement.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        self.counters.merge(&other.counters)
    }

    /// Materializes the class hypervectors (Fig. 6 steps E–F):
    /// per chunk, the weighted sum `Σ_addr count·LUT[addr]` is formed and
    /// bound with the chunk's position key, then accumulated over chunks.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] if no samples were observed.
    pub fn finalize(&self, encoder: &LookupEncoder) -> Result<ClassModel> {
        let _span = obs::span("materialize");
        let total: u64 = (0..self.counters.n_classes())
            .map(|c| self.counters.samples_seen(c))
            .sum();
        if total == 0 {
            return Err(HdcError::invalid_dataset(
                "cannot finalize with zero observed samples",
            ));
        }
        let dim = encoder.lut().levels().dim();
        let classes = (0..self.counters.n_classes())
            .map(|class| self.materialize_class(encoder, class, dim))
            .collect();
        ClassModel::from_classes(classes)
    }

    /// Materializes one class hypervector from its counters (Fig. 6 steps
    /// E–F).
    fn materialize_class(&self, encoder: &LookupEncoder, class: usize, dim: usize) -> DenseHv {
        let mut acc = DenseHv::zeros(dim);
        for chunk in 0..self.counters.layout().n_chunks() {
            let key = encoder.positions().key(chunk);
            for (addr, count) in self.counters.nonzero(class, chunk) {
                encoder
                    .lut()
                    .accumulate_row(chunk, addr, key, count as i32, acc.as_mut_slice());
            }
        }
        acc
    }

    /// One-shot convenience: observe every `(features, label)` pair and
    /// finalize.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for empty or mismatched inputs,
    /// plus any per-sample error.
    pub fn fit(
        encoder: &LookupEncoder,
        features: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
    ) -> Result<ClassModel> {
        let _span = obs::span("counter_train");
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
        let mut trainer = Self::new(encoder, n_classes)?;
        for (f, &y) in features.iter().zip(labels) {
            trainer.observe(encoder, f, y)?;
        }
        trainer.finalize(encoder)
    }

    /// Read access to the counter state (for the hardware cost models).
    pub fn counters(&self) -> &ChunkCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::encoding::Encode;
    use hdc::levels::LevelMemory;
    use hdc::quantize::{Quantization, Quantizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::chunking::ChunkLayout;
    use crate::lut::TableMode;

    fn encoder(n: usize, r: usize, q: usize, dim: usize, seed: u64) -> LookupEncoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        LookupEncoder::new(layout, &levels, quantizer, TableMode::Materialized, seed).unwrap()
    }

    fn random_dataset(
        n: usize,
        samples: usize,
        k: usize,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs = (0..samples)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys = (0..samples).map(|i| i % k).collect();
        (xs, ys)
    }

    /// The paper's central training claim: the counter factorization equals
    /// explicit encode-and-bundle, exactly.
    #[test]
    fn counter_training_equals_bundled_encoding() {
        let enc = encoder(13, 5, 4, 256, 1);
        let (xs, ys) = random_dataset(13, 40, 3, 2);
        let counter_model = CounterTrainer::fit(&enc, &xs, &ys, 3).unwrap();
        // Reference: encode every sample and bundle.
        let encoded = enc.encode_batch(&xs).unwrap();
        let reference = hdc::train::initial_fit(&encoded, &ys, 3).unwrap();
        for c in 0..3 {
            assert_eq!(counter_model.class(c), reference.class(c), "class {c}");
        }
    }

    #[test]
    fn equivalence_holds_for_on_the_fly_tables() {
        let mut rng = StdRng::seed_from_u64(3);
        let levels = LevelMemory::generate(128, 4, &mut rng).unwrap();
        let q = Quantizer::fit(Quantization::Linear, &[0.0, 0.5, 1.0], 4).unwrap();
        let layout = ChunkLayout::new(11, 5, 4).unwrap();
        let enc = LookupEncoder::new(layout, &levels, q, TableMode::OnTheFly, 7).unwrap();
        let (xs, ys) = random_dataset(11, 20, 2, 4);
        let counter_model = CounterTrainer::fit(&enc, &xs, &ys, 2).unwrap();
        let reference = hdc::train::initial_fit(&enc.encode_batch(&xs).unwrap(), &ys, 2).unwrap();
        assert_eq!(counter_model.class(0), reference.class(0));
        assert_eq!(counter_model.class(1), reference.class(1));
    }

    #[test]
    fn incremental_observe_matches_one_shot_fit() {
        let enc = encoder(10, 5, 2, 64, 5);
        let (xs, ys) = random_dataset(10, 15, 2, 6);
        let mut t = CounterTrainer::new(&enc, 2).unwrap();
        for (f, &y) in xs.iter().zip(&ys) {
            t.observe(&enc, f, y).unwrap();
        }
        let a = t.finalize(&enc).unwrap();
        let b = CounterTrainer::fit(&enc, &xs, &ys, 2).unwrap();
        assert_eq!(a.class(0), b.class(0));
        assert_eq!(a.class(1), b.class(1));
    }

    #[test]
    fn finalize_errors_without_observations() {
        let enc = encoder(10, 5, 2, 64, 7);
        let t = CounterTrainer::new(&enc, 2).unwrap();
        assert!(t.finalize(&enc).is_err());
    }

    #[test]
    fn fit_validates_inputs() {
        let enc = encoder(10, 5, 2, 64, 8);
        assert!(CounterTrainer::fit(&enc, &[], &[], 2).is_err());
        let (xs, _) = random_dataset(10, 3, 2, 9);
        assert!(CounterTrainer::fit(&enc, &xs, &[0], 2).is_err());
    }

    #[test]
    fn counters_expose_sample_counts() {
        let enc = encoder(10, 5, 2, 64, 10);
        let (xs, ys) = random_dataset(10, 9, 3, 11);
        let mut t = CounterTrainer::new(&enc, 3).unwrap();
        for (f, &y) in xs.iter().zip(&ys) {
            t.observe(&enc, f, y).unwrap();
        }
        assert_eq!(t.counters().samples_seen(0), 3);
        assert_eq!(t.counters().samples_seen(1), 3);
        assert_eq!(t.counters().samples_seen(2), 3);
    }
}
