//! Counter-based training (§III-D): stream samples as counter increments,
//! materialize class hypervectors once at the end.
//!
//! The paper's FPGA keeps one counter per chunk-table row per class and
//! weighs each row by its count (`C = Σ_c P_c ⊙ Σ_addr count·LUT_c[addr]`,
//! emulated per address in `lookhd-rtl`). Every row is `Σ_j ρ^j(L_lv)`,
//! so the class hypervector depends on those counters only through their
//! per-feature marginals:
//!
//! ```text
//! C = Σ_i Σ_lv count[i][lv] · P_{c(i)} ⊙ ρ^{j(i)}(L_lv)
//! ```
//!
//! where `count[i][lv]` counts the class's samples whose feature `i`
//! (position `j(i)` of chunk `c(i)`) quantized to level `lv`. This
//! software counts those marginals: `k·n·q` cells, always dense, linear
//! and mergeable. The result is exactly equal to bundling every encoded
//! sample — pinned by the tests below and by `tests/equivalence.rs`.

use hdc::encoding::Encode;
use hdc::hv::{sum_bound_pairs, DenseHv};
use hdc::model::ClassModel;
use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;
use crate::encoder::LookupEncoder;

/// Trains a [`ClassModel`] with LookHD's counter factorization.
///
/// The result is **bit-exact** with bundling every encoded sample
/// (`C_i = Σ_{j∈class_i} H_j`), but per-sample work is just quantization and
/// counter increments — no `D`-dimensional arithmetic (the source of the
/// paper's training speedup).
///
/// `PartialEq` compares the exact counts (the online-vs-batch
/// differential tests assert streamed counters equal batch counters bit
/// for bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTrainer {
    layout: ChunkLayout,
    n_classes: usize,
    /// `counts[(class·n + i)·q + lv]`: the samples of `class` whose
    /// feature `i` quantized to level `lv`.
    counts: Vec<u32>,
}

impl CounterTrainer {
    /// Creates a trainer with zeroed counters for `n_classes` classes over
    /// the encoder's layout.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `n_classes == 0` or the
    /// `k·n·q` counters do not fit the address space.
    pub fn new(encoder: &LookupEncoder, n_classes: usize) -> Result<Self> {
        if n_classes == 0 {
            return Err(HdcError::invalid_config("k", "need at least one class"));
        }
        let layout = *encoder.layout();
        let cells = n_classes
            .checked_mul(layout.n_features())
            .and_then(|c| c.checked_mul(layout.q()))
            .ok_or_else(|| HdcError::invalid_config("k", "k·n·q counters overflow usize"))?;
        Ok(Self {
            layout,
            n_classes,
            counts: vec![0; cells],
        })
    }

    /// Streams one training sample: each feature's quantization level
    /// increments its counter (Fig. 6 step D, per feature). No
    /// hypervector arithmetic happens here.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on feature-arity mismatch or a
    /// non-finite feature, [`HdcError::InvalidConfig`] for an encoder over
    /// another layout, and [`HdcError::UnknownClass`] for an out-of-range
    /// label; the counters are unchanged on error.
    pub fn observe(
        &mut self,
        encoder: &LookupEncoder,
        features: &[f64],
        label: usize,
    ) -> Result<()> {
        let levels = encoder.feature_levels(features)?;
        self.check_layout(encoder.layout())?;
        if label >= self.n_classes {
            return Err(HdcError::UnknownClass {
                label,
                n_classes: self.n_classes,
            });
        }
        obs::counter("counter_train.samples", 1);
        let q = self.layout.q();
        for (cells, lv) in self.class_counts_mut(label).chunks_exact_mut(q).zip(levels) {
            cells[lv] += 1;
        }
        Ok(())
    }

    /// Folds another trainer's counters into this one. Counter addition
    /// is associative and commutative, so sharded observation followed by
    /// a merge is bit-identical to serial observation in any order.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if the layouts differ and
    /// [`HdcError::InvalidDataset`] if the class counts differ.
    pub fn merge(&mut self, other: &Self) -> Result<()> {
        self.check_layout(&other.layout)?;
        if other.n_classes != self.n_classes {
            return Err(HdcError::invalid_dataset(format!(
                "cannot merge {}-class counters into {}-class counters",
                other.n_classes, self.n_classes
            )));
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        Ok(())
    }

    /// Materializes the class hypervectors (Fig. 6 steps E–F) from the
    /// level counts: `C = Σ_{i,lv} count·P_{c(i)} ⊙ ρ^{j(i)}(L_lv)`.
    ///
    /// The sum runs through [`sum_bound_pairs`] once per bit of the
    /// counts, highest first: bit `b` selects the `(feature, level)` pairs
    /// whose count has it set, and doubling the partial sum before each
    /// lower bit weighs them `2^b`. Per feature the counts sum to the
    /// class's samples, so no partial sum exceeds the result's bound of
    /// `n` times that.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] if no samples were observed and
    /// [`HdcError::InvalidConfig`] for an encoder over another layout.
    pub fn finalize(&self, encoder: &LookupEncoder) -> Result<ClassModel> {
        let _span = obs::span("materialize");
        self.check_layout(encoder.layout())?;
        let total: u64 = (0..self.n_classes).map(|c| self.samples_seen(c)).sum();
        if total == 0 {
            return Err(HdcError::invalid_dataset(
                "cannot finalize with zero observed samples",
            ));
        }
        // One bit's pairs, gathered once: the sum walks them once per
        // 256 dimensions.
        let mut pairs = Vec::new();
        let classes = (0..self.n_classes)
            .map(|class| {
                let counts = self.class_counts(class);
                let top = counts
                    .iter()
                    .max()
                    .map_or(0, |c| u32::BITS - c.leading_zeros());
                let mut acc = DenseHv::zeros(encoder.dim());
                for bit in (0..top).rev() {
                    for a in acc.as_mut_slice() {
                        *a *= 2;
                    }
                    pairs.clear();
                    pairs.extend(encoder.count_plane_pairs(counts, bit));
                    sum_bound_pairs(acc.as_mut_slice(), pairs.iter().copied());
                }
                acc
            })
            .collect();
        ClassModel::from_classes(classes)
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

    /// The number of `class` samples whose feature `feature` quantized to
    /// `level`.
    ///
    /// # Panics
    ///
    /// Panics if `class`, `feature` or `level` is out of range.
    pub fn count(&self, class: usize, feature: usize, level: usize) -> u32 {
        let q = self.layout.q();
        assert!(level < q, "level {level} out of range for q={q}");
        self.class_counts(class)[feature * q + level]
    }

    /// Number of samples observed for `class` (every feature counts each
    /// sample once, so feature 0's counts sum to the sample count).
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn samples_seen(&self, class: usize) -> u64 {
        let q = self.layout.q();
        self.class_counts(class)[..q]
            .iter()
            .map(|&c| u64::from(c))
            .sum()
    }

    /// Number of classes `k`.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn class_counts(&self, class: usize) -> &[u32] {
        assert!(class < self.n_classes, "class {class} out of range");
        let cells = self.layout.n_features() * self.layout.q();
        &self.counts[class * cells..(class + 1) * cells]
    }

    fn class_counts_mut(&mut self, class: usize) -> &mut [u32] {
        let cells = self.layout.n_features() * self.layout.q();
        &mut self.counts[class * cells..(class + 1) * cells]
    }

    /// Refuses counters or an encoder over a layout other than this
    /// trainer's.
    fn check_layout(&self, layout: &ChunkLayout) -> Result<()> {
        if *layout != self.layout {
            return Err(HdcError::invalid_config(
                "layout",
                "counters and encoder are over different chunk layouts",
            ));
        }
        Ok(())
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

    fn encoder(n: usize, r: usize, q: usize, dim: usize, seed: u64) -> LookupEncoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        LookupEncoder::new(layout, &levels, quantizer, seed).unwrap()
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

    /// Counts with many bits (one sample repeated 1,000 times sets bits 3
    /// and 5–9), a partial final chunk (n = 11, r = 5), q = 8 and D = 300
    /// (a partial block): every bit plane of the finalize is weighed
    /// exactly.
    #[test]
    fn finalize_weighs_every_bit_of_the_counts() {
        let enc = encoder(11, 5, 8, 300, 3);
        let (mut xs, mut ys) = random_dataset(11, 30, 2, 4);
        xs.extend(std::iter::repeat_n(xs[0].clone(), 1000));
        ys.extend(std::iter::repeat_n(ys[0], 1000));
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
    fn observe_counts_each_feature_level() {
        let enc = encoder(10, 5, 2, 64, 10);
        let (xs, ys) = random_dataset(10, 9, 3, 11);
        let mut t = CounterTrainer::new(&enc, 3).unwrap();
        for (f, &y) in xs.iter().zip(&ys) {
            t.observe(&enc, f, y).unwrap();
        }
        assert_eq!(t.samples_seen(0), 3);
        assert_eq!(t.samples_seen(1), 3);
        assert_eq!(t.samples_seen(2), 3);
        assert_eq!(t.n_classes(), 3);
        for (feature, &x) in xs[4].iter().enumerate() {
            let level = enc.quantizer().level(x);
            let want = [4, 1, 7]
                .into_iter()
                .filter(|&s| enc.quantizer().level(xs[s][feature]) == level)
                .count() as u32;
            assert_eq!(t.count(1, feature, level), want, "feature {feature}");
        }
    }

    /// Bad inputs are refused and leave the counters unchanged.
    #[test]
    fn validates_inputs() {
        let enc = encoder(10, 5, 4, 64, 12);
        let mut t = CounterTrainer::new(&enc, 2).unwrap();
        let before = t.clone();
        assert!(matches!(
            t.observe(&enc, &[0.5; 10], 5),
            Err(HdcError::UnknownClass { .. })
        ));
        assert!(t.observe(&enc, &[0.5; 9], 0).is_err());
        let mut nan = [0.5; 10];
        nan[3] = f64::NAN;
        assert!(t.observe(&enc, &nan, 0).is_err());
        let other = encoder(10, 2, 4, 64, 12);
        assert!(t.observe(&other, &[0.5; 10], 0).is_err());
        assert_eq!(t, before);
        assert!(CounterTrainer::new(&enc, 0).is_err());
        t.observe(&enc, &[0.5; 10], 1).unwrap();
        assert!(t.finalize(&other).is_err());
    }

    #[test]
    fn merge_equals_serial_observation() {
        let enc = encoder(10, 5, 4, 64, 13);
        let (xs, ys) = random_dataset(10, 5, 2, 14);
        let serial = {
            let mut t = CounterTrainer::new(&enc, 2).unwrap();
            for (f, &y) in xs.iter().zip(&ys) {
                t.observe(&enc, f, y).unwrap();
            }
            t
        };
        let mut left = CounterTrainer::new(&enc, 2).unwrap();
        let mut right = CounterTrainer::new(&enc, 2).unwrap();
        for (f, &y) in xs[..2].iter().zip(&ys) {
            left.observe(&enc, f, y).unwrap();
        }
        for (f, &y) in xs[2..].iter().zip(&ys[2..]) {
            right.observe(&enc, f, y).unwrap();
        }
        left.merge(&right).unwrap();
        assert_eq!(left, serial);
        for class in 0..2 {
            assert_eq!(left.samples_seen(class), serial.samples_seen(class));
        }
    }

    #[test]
    fn merge_validates_shape() {
        let enc = encoder(10, 5, 4, 64, 15);
        let mut a = CounterTrainer::new(&enc, 2).unwrap();
        let b = CounterTrainer::new(&enc, 3).unwrap();
        assert!(a.merge(&b).is_err());
        let c = CounterTrainer::new(&encoder(20, 5, 4, 64, 15), 2).unwrap();
        assert!(a.merge(&c).is_err());
    }
}
