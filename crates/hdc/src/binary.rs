//! Binary (majority-thresholded) HDC models.
//!
//! §VII of the paper notes that several prior HDC systems work entirely in
//! the binary domain, trading accuracy (≈17.5% on average, per the paper)
//! for cheaper Hamming-distance inference. This module provides that
//! binarized variant so the accuracy gap can be measured directly.

use crate::classify::argmax_margin;
use crate::error::{HdcError, Result};
use crate::hv::{BipolarHv, DenseHv};
use crate::model::ClassModel;

/// A binarized class model: the element-wise sign of each class hypervector.
///
/// Inference uses the bipolar dot product (equivalent to Hamming distance up
/// to an affine transform), which is what binary-HDC hardware computes.
///
/// # Examples
///
/// ```
/// use hdc::hv::DenseHv;
/// use hdc::model::ClassModel;
/// use hdc::binary::BinaryModel;
///
/// let model = ClassModel::from_classes(vec![
///     DenseHv::from_vec(vec![5, -2, 7, -9]),
///     DenseHv::from_vec(vec![-5, 2, -7, 9]),
/// ])?;
/// let bin = BinaryModel::from_model(&model);
/// let query = DenseHv::from_vec(vec![3, -1, 2, -4]);
/// assert_eq!(bin.predict(&query)?, 0);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BinaryModel {
    classes: Vec<BipolarHv>,
}

impl BinaryModel {
    /// Binarizes a trained non-binary model by taking element-wise signs.
    pub fn from_model(model: &ClassModel) -> Self {
        Self {
            classes: model.classes().iter().map(DenseHv::sign).collect(),
        }
    }

    /// Number of classes `k`.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.classes[0].dim()
    }

    /// The binarized class hypervector for `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes()`.
    pub fn class(&self, label: usize) -> &BipolarHv {
        &self.classes[label]
    }

    /// Predicts using bipolar dot products against a *dense* query (the
    /// query itself is usually left non-binary, as in the paper's binary
    /// baselines where only the model is binarized).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on dimension disagreement.
    pub fn predict(&self, query: &DenseHv) -> Result<usize> {
        if query.dim() != self.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                actual: query.dim(),
            });
        }
        let scores: Vec<f64> = self
            .classes
            .iter()
            .map(|c| query.dot_bipolar(c) as f64)
            .collect();
        Ok(argmax_margin(&scores).0)
    }

    /// Predicts from a fully binarized query via Hamming distance (the
    /// all-binary regime of the prior-work systems).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on dimension disagreement.
    pub fn predict_binary(&self, query: &BipolarHv) -> Result<usize> {
        if query.dim() != self.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                actual: query.dim(),
            });
        }
        let scores: Vec<f64> = self
            .classes
            .iter()
            .map(|c| -(query.hamming(c) as f64))
            .collect();
        Ok(argmax_margin(&scores).0)
    }

    /// Model size in bytes (1 bit per dimension, the binary-HDC selling
    /// point).
    pub fn size_bytes(&self) -> usize {
        self.n_classes() * self.dim().div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_pair(dim: usize, seed: u64) -> (ClassModel, Vec<DenseHv>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos = [
            BipolarHv::random(dim, &mut rng),
            BipolarHv::random(dim, &mut rng),
        ];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, p) in protos.iter().enumerate() {
            for _ in 0..20 {
                let mut hv = p.clone();
                let idx: Vec<usize> = (0..dim / 10).map(|_| rng.gen_range(0..dim)).collect();
                hv.flip(&idx);
                xs.push(DenseHv::from(&hv));
                ys.push(c);
            }
        }
        let model = crate::train::initial_fit(&xs, &ys, 2).unwrap();
        (model, xs, ys)
    }

    #[test]
    fn binary_model_classifies_clean_data() {
        let (model, xs, ys) = trained_pair(512, 1);
        let bin = BinaryModel::from_model(&model);
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(h, &y)| bin.predict(h).unwrap() == y)
            .count();
        assert_eq!(correct, xs.len());
        assert_eq!(bin.n_classes(), 2);
        assert_eq!(bin.dim(), 512);
    }

    #[test]
    fn binary_query_path_agrees_on_easy_data() {
        let (model, xs, ys) = trained_pair(512, 2);
        let bin = BinaryModel::from_model(&model);
        for (h, &y) in xs.iter().zip(&ys) {
            assert_eq!(bin.predict_binary(&h.sign()).unwrap(), y);
        }
    }

    #[test]
    fn binary_model_is_32x_smaller() {
        let (model, _, _) = trained_pair(512, 3);
        let bin = BinaryModel::from_model(&model);
        assert_eq!(model.size_bytes() / bin.size_bytes(), 32);
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let (model, _, _) = trained_pair(64, 4);
        let bin = BinaryModel::from_model(&model);
        assert!(bin.predict(&DenseHv::zeros(32)).is_err());
        assert!(bin.predict_binary(&BipolarHv::ones(32)).is_err());
    }
}
