//! Encoders: mapping feature vectors into high-dimensional space.
//!
//! The baseline HDC encoding (Eq. 1 of the paper) quantizes every feature to
//! a level hypervector and bundles the per-feature permutations:
//!
//! ```text
//! H = L̄_1 + ρ L̄_2 + … + ρ^{n-1} L̄_n
//! ```
//!
//! where `ρ` is a one-position rotational shift and `L̄_i` is the level
//! hypervector of feature `i`'s quantized value. This module provides the
//! [`Encode`] trait shared with the LookHD lookup encoder and the baseline
//! [`PermutationEncoder`].

use crate::error::{HdcError, Result};
use crate::hv::DenseHv;
use crate::levels::LevelMemory;
use crate::quantize::{FeatureQuantizers, Quantizer};

/// Maps a raw feature vector to a dense query/encoding hypervector.
///
/// Implementations are deterministic: encoding the same features twice
/// yields the same hypervector.
pub trait Encode {
    /// Hypervector dimensionality `D` produced by this encoder.
    fn dim(&self) -> usize;

    /// Number of input features `n` this encoder expects.
    fn n_features(&self) -> usize;

    /// Encodes one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] if `features.len()` differs from
    /// [`Encode::n_features`].
    fn encode(&self, features: &[f64]) -> Result<DenseHv>;

    /// Encodes a batch of feature vectors, in order, under one
    /// `encode_batch` span that also ticks `encode_batch.samples`.
    ///
    /// # Errors
    ///
    /// Propagates the first encoding error.
    fn encode_batch(&self, features: &[Vec<f64>]) -> Result<Vec<DenseHv>> {
        let _span = obs::span("encode_batch");
        obs::counter("encode_batch.samples", features.len() as u64);
        features.iter().map(|f| self.encode(f)).collect()
    }
}

/// The baseline permutation ("record-based") encoder of §II-A.
///
/// # Examples
///
/// ```
/// use hdc::encoding::{Encode, PermutationEncoder};
/// use hdc::levels::LevelMemory;
/// use hdc::quantize::{Quantization, Quantizer};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let levels = LevelMemory::generate(1000, 4, &mut rng)?;
/// let quantizer = Quantizer::fit(Quantization::Linear, &[0.0, 1.0, 2.0, 3.0], 4)?;
/// let enc = PermutationEncoder::new(levels, quantizer, 3)?;
/// let h = enc.encode(&[0.0, 1.5, 3.0])?;
/// assert_eq!(h.dim(), 1000);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PermutationEncoder {
    levels: LevelMemory,
    quantizer: QuantizerScope,
    n_features: usize,
}

/// Global (the paper's rule) or per-feature quantization.
#[derive(Debug, Clone)]
enum QuantizerScope {
    Global(Quantizer),
    PerFeature(FeatureQuantizers),
}

impl QuantizerScope {
    fn level(&self, j: usize, x: f64) -> usize {
        match self {
            Self::Global(q) => q.level(x),
            Self::PerFeature(fq) => fq.column(j).level(x),
        }
    }
}

impl PermutationEncoder {
    /// Builds an encoder from a level memory and a fitted quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `n_features == 0` or the
    /// quantizer's level count differs from the level memory's.
    pub fn new(levels: LevelMemory, quantizer: Quantizer, n_features: usize) -> Result<Self> {
        if n_features == 0 {
            return Err(HdcError::invalid_config(
                "n_features",
                "need at least one feature",
            ));
        }
        if quantizer.levels() != levels.levels() {
            return Err(HdcError::invalid_config(
                "q",
                format!(
                    "quantizer has {} levels but level memory has {}",
                    quantizer.levels(),
                    levels.levels()
                ),
            ));
        }
        Ok(Self {
            levels,
            quantizer: QuantizerScope::Global(quantizer),
            n_features,
        })
    }

    /// Builds an encoder with independent per-feature quantizers (an
    /// extension beyond the paper's single global quantizer; see
    /// [`FeatureQuantizers`]).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when the quantizers' level or
    /// feature counts disagree with the level memory.
    pub fn with_feature_quantizers(
        levels: LevelMemory,
        quantizers: FeatureQuantizers,
    ) -> Result<Self> {
        if quantizers.levels() != levels.levels() {
            return Err(HdcError::invalid_config(
                "q",
                format!(
                    "quantizers have {} levels but level memory has {}",
                    quantizers.levels(),
                    levels.levels()
                ),
            ));
        }
        let n_features = quantizers.n_features();
        Ok(Self {
            levels,
            quantizer: QuantizerScope::PerFeature(quantizers),
            n_features,
        })
    }

    /// The level memory (shared with LookHD's lookup-table builder).
    pub fn levels(&self) -> &LevelMemory {
        &self.levels
    }

    /// The fitted global quantizer, when this encoder uses one.
    pub fn quantizer(&self) -> Option<&Quantizer> {
        match &self.quantizer {
            QuantizerScope::Global(q) => Some(q),
            QuantizerScope::PerFeature(_) => None,
        }
    }
}

impl Encode for PermutationEncoder {
    fn dim(&self) -> usize {
        self.levels.dim()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn encode(&self, features: &[f64]) -> Result<DenseHv> {
        if features.len() != self.n_features {
            return Err(HdcError::invalid_dataset(format!(
                "expected {} features, got {}",
                self.n_features,
                features.len()
            )));
        }
        let mut acc = DenseHv::zeros(self.dim());
        for (i, &f) in features.iter().enumerate() {
            let level = self.quantizer.level(i, f);
            acc.add_rotated_bipolar(self.levels.level(level), i);
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::Quantization;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(dim: usize, q: usize, n: usize, seed: u64) -> PermutationEncoder {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let quantizer = Quantizer::fit(Quantization::Linear, &samples, q).unwrap();
        PermutationEncoder::new(levels, quantizer, n).unwrap()
    }

    #[test]
    fn encode_matches_manual_equation_one() {
        let enc = encoder(256, 4, 5, 1);
        let features = [0.1, 0.4, 0.6, 0.9, 0.2];
        let h = enc.encode(&features).unwrap();
        let mut manual = DenseHv::zeros(256);
        for (i, &f) in features.iter().enumerate() {
            let lvl = enc.quantizer().expect("global quantizer").level(f);
            let rotated = enc.levels().level(lvl).rotated(i);
            manual.add_bipolar(&rotated);
        }
        assert_eq!(h, manual);
    }

    #[test]
    fn encoding_is_deterministic() {
        let enc = encoder(512, 4, 8, 2);
        let f: Vec<f64> = (0..8).map(|i| i as f64 / 8.0).collect();
        assert_eq!(enc.encode(&f).unwrap(), enc.encode(&f).unwrap());
    }

    #[test]
    fn similar_inputs_encode_similarly() {
        let enc = encoder(4000, 8, 20, 3);
        let a: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        let mut b = a.clone();
        b[0] += 0.01; // tiny perturbation, same quantization level
        let mut c: Vec<f64> = a.iter().map(|x| 1.0 - x).collect();
        c.reverse(); // thoroughly different pattern
        let ha = enc.encode(&a).unwrap();
        let hb = enc.encode(&b).unwrap();
        let hc = enc.encode(&c).unwrap();
        assert!(ha.cosine(&hb) > ha.cosine(&hc));
        assert!(ha.cosine(&hb) > 0.99);
    }

    #[test]
    fn element_magnitudes_bounded_by_feature_count() {
        let enc = encoder(128, 4, 10, 4);
        let f = vec![0.5; 10];
        let h = enc.encode(&f).unwrap();
        assert!(h.max_abs() <= 10);
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let enc = encoder(128, 4, 10, 5);
        assert!(matches!(
            enc.encode(&[0.0; 3]),
            Err(HdcError::InvalidDataset { .. })
        ));
    }

    #[test]
    fn constructor_validates() {
        let mut rng = StdRng::seed_from_u64(6);
        let levels = LevelMemory::generate(64, 4, &mut rng).unwrap();
        let quant = Quantizer::fit(Quantization::Linear, &[0.0, 1.0], 2).unwrap();
        assert!(PermutationEncoder::new(levels.clone(), quant, 4).is_err());
        let quant4 = Quantizer::fit(Quantization::Linear, &[0.0, 1.0], 4).unwrap();
        assert!(PermutationEncoder::new(levels, quant4, 0).is_err());
    }

    #[test]
    fn encode_batch_encodes_all_rows() {
        let enc = encoder(128, 4, 4, 7);
        let rows = vec![vec![0.1; 4], vec![0.9; 4]];
        let out = enc.encode_batch(&rows).unwrap();
        assert_eq!(out.len(), 2);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn per_feature_quantization_resolves_mixed_scales() {
        // Column 0 in [0, 1], column 1 in [100, 200]: a global quantizer
        // collapses column 0 to one level; per-feature fitting keeps both
        // informative, so two inputs differing only in column 0 encode
        // differently.
        let mut rng = StdRng::seed_from_u64(9);
        let levels = LevelMemory::generate(512, 4, &mut rng).unwrap();
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64 / 100.0, 100.0 + i as f64])
            .collect();
        let fq =
            crate::quantize::FeatureQuantizers::fit(Quantization::Equalized, &rows, 4).unwrap();
        let enc = PermutationEncoder::with_feature_quantizers(levels.clone(), fq).unwrap();
        assert!(enc.quantizer().is_none());
        let a = enc.encode(&[0.05, 150.0]).unwrap();
        let b = enc.encode(&[0.95, 150.0]).unwrap();
        assert!(
            a.cosine(&b) < 0.9,
            "per-feature levels must differ: {}",
            a.cosine(&b)
        );

        // A global *linear* quantizer over the pooled values cannot see
        // column 0 (all of [0, 1] falls in the lowest bin of [0, 200]).
        let pooled: Vec<f64> = rows.iter().flatten().copied().collect();
        let global = Quantizer::fit(Quantization::Linear, &pooled, 4).unwrap();
        let genc = PermutationEncoder::new(levels, global, 2).unwrap();
        let ga = genc.encode(&[0.05, 150.0]).unwrap();
        let gb = genc.encode(&[0.95, 150.0]).unwrap();
        assert!(ga.cosine(&gb) > 0.99, "global levels collapse column 0");
    }
}
