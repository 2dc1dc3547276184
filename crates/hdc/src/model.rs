//! Class models and associative search (§II-B, §II-C, §IV-A).
//!
//! A trained (non-compressed) HDC model is one dense class hypervector per
//! class. Inference finds the class with the highest cosine similarity to
//! the query; as in the paper, class hypervectors are pre-normalized once so
//! the per-query similarity reduces to a dot product.

use crate::classify::argmax_margin;
use crate::error::{HdcError, Result};
use crate::hv::DenseHv;

/// A trained HDC model: `k` class hypervectors of dimension `D`.
///
/// # Examples
///
/// ```
/// use hdc::hv::DenseHv;
/// use hdc::model::ClassModel;
///
/// let classes = vec![
///     DenseHv::from_vec(vec![5, 0, 0]),
///     DenseHv::from_vec(vec![0, 5, 0]),
/// ];
/// let model = ClassModel::from_classes(classes)?;
/// let query = DenseHv::from_vec(vec![1, 4, 0]);
/// assert_eq!(model.predict(&query)?, 1);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClassModel {
    classes: Vec<DenseHv>,
    norms: Vec<f64>,
}

impl ClassModel {
    /// Builds a model from class hypervectors.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] if `classes` is empty, and
    /// [`HdcError::DimensionMismatch`] if the dimensions disagree.
    pub fn from_classes(classes: Vec<DenseHv>) -> Result<Self> {
        if classes.is_empty() {
            return Err(HdcError::invalid_dataset("model needs at least one class"));
        }
        let dim = classes[0].dim();
        for c in &classes {
            if c.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    expected: dim,
                    actual: c.dim(),
                });
            }
        }
        let norms = classes.iter().map(DenseHv::norm).collect();
        Ok(Self { classes, norms })
    }

    /// Builds an all-zero model with `k` classes (used by online trainers).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `k == 0` or `dim == 0`.
    pub fn zeros(k: usize, dim: usize) -> Result<Self> {
        if k == 0 {
            return Err(HdcError::invalid_config("k", "need at least one class"));
        }
        if dim == 0 {
            return Err(HdcError::invalid_config(
                "dim",
                "dimension must be positive",
            ));
        }
        Ok(Self {
            classes: vec![DenseHv::zeros(dim); k],
            norms: vec![0.0; k],
        })
    }

    /// Number of classes `k`.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.classes[0].dim()
    }

    /// The class hypervector for `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes()`.
    pub fn class(&self, label: usize) -> &DenseHv {
        &self.classes[label]
    }

    /// All class hypervectors in label order.
    pub fn classes(&self) -> &[DenseHv] {
        &self.classes
    }

    /// Normalized-dot scores of a query against every class
    /// (`H · C_i / ‖C_i‖`; the common query norm is omitted, §IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn scores(&self, query: &DenseHv) -> Result<Vec<f64>> {
        if query.dim() != self.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                actual: query.dim(),
            });
        }
        Ok(self
            .classes
            .iter()
            .zip(&self.norms)
            .map(|(c, &n)| {
                if n == 0.0 {
                    f64::NEG_INFINITY
                } else {
                    query.dot(c) as f64 / n
                }
            })
            .collect())
    }

    /// Predicts the best-matching class for a query hypervector.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn predict(&self, query: &DenseHv) -> Result<usize> {
        let scores = self.scores(query)?;
        Ok(argmax_margin(&scores).0)
    }

    /// The `k` best-matching classes with their normalized-dot scores, best
    /// first (clamped to the class count) — for rejection thresholds and
    /// top-k evaluation on many-class applications.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn predict_top_k(&self, query: &DenseHv, k: usize) -> Result<Vec<(usize, f64)>> {
        let scores = self.scores(query)?;
        let mut ranked: Vec<(usize, f64)> = scores.into_iter().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
        ranked.truncate(k.min(self.n_classes()));
        Ok(ranked)
    }

    /// Full cosine similarities `δ(H, C_i)` including the query norm — used
    /// by the Fig. 8 cosine-distribution experiment.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] if the query dimension differs.
    pub fn cosines(&self, query: &DenseHv) -> Result<Vec<f64>> {
        if query.dim() != self.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                actual: query.dim(),
            });
        }
        Ok(self.classes.iter().map(|c| query.cosine(c)).collect())
    }

    /// Adds an encoded sample into a class (`C += H`).
    ///
    /// Norms are refreshed lazily: call [`ClassModel::refresh_norms`] after a
    /// batch of updates (the paper normalizes once after training).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] for an out-of-range label and
    /// [`HdcError::DimensionMismatch`] for a wrong-dimension sample.
    pub fn add(&mut self, label: usize, sample: &DenseHv) -> Result<()> {
        self.check(label, sample)?;
        self.classes[label].add_assign_hv(sample);
        Ok(())
    }

    /// Subtracts an encoded sample from a class (`C -= H`).
    ///
    /// # Errors
    ///
    /// Same as [`ClassModel::add`].
    pub fn sub(&mut self, label: usize, sample: &DenseHv) -> Result<()> {
        self.check(label, sample)?;
        self.classes[label].sub_assign_hv(sample);
        Ok(())
    }

    fn check(&self, label: usize, sample: &DenseHv) -> Result<()> {
        if label >= self.n_classes() {
            return Err(HdcError::UnknownClass {
                label,
                n_classes: self.n_classes(),
            });
        }
        if sample.dim() != self.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim(),
                actual: sample.dim(),
            });
        }
        Ok(())
    }

    /// Recomputes the cached class norms after in-place updates.
    pub fn refresh_norms(&mut self) {
        for (n, c) in self.norms.iter_mut().zip(&self.classes) {
            *n = c.norm();
        }
    }

    /// Average pairwise cosine similarity among class hypervectors — the
    /// model-correlation statistic behind Fig. 8's motivation.
    pub fn class_correlation(&self) -> f64 {
        let k = self.n_classes();
        if k < 2 {
            return 1.0;
        }
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                sum += self.classes[i].cosine(&self.classes[j]);
                pairs += 1;
            }
        }
        sum / pairs as f64
    }

    /// Model size in bytes assuming 32-bit storage per element — the metric
    /// behind the paper's "model size" comparisons (k·D·4 bytes).
    pub fn size_bytes(&self) -> usize {
        self.n_classes() * self.dim() * std::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> ClassModel {
        ClassModel::from_classes(vec![
            DenseHv::from_vec(vec![10, 0, 0, 0]),
            DenseHv::from_vec(vec![0, 10, 0, 0]),
            DenseHv::from_vec(vec![0, 0, 10, 10]),
        ])
        .unwrap()
    }

    #[test]
    fn predict_picks_most_similar_class() {
        let m = toy_model();
        assert_eq!(m.predict(&DenseHv::from_vec(vec![9, 1, 0, 0])).unwrap(), 0);
        assert_eq!(m.predict(&DenseHv::from_vec(vec![0, 5, 1, 0])).unwrap(), 1);
        assert_eq!(m.predict(&DenseHv::from_vec(vec![0, 0, 3, 3])).unwrap(), 2);
    }

    #[test]
    fn scores_are_norm_adjusted() {
        // Class 2 has norm √200; a query equally aligned with class 0 and 2
        // must not be biased toward the larger-magnitude class.
        let m = toy_model();
        let scores = m.scores(&DenseHv::from_vec(vec![1, 0, 1, 1])).unwrap();
        assert!(scores[2] > scores[0]);
        let m2 = ClassModel::from_classes(vec![
            DenseHv::from_vec(vec![100, 0]),
            DenseHv::from_vec(vec![1, 1]),
        ])
        .unwrap();
        // Aligned with class 1's direction despite class 0's magnitude.
        assert_eq!(m2.predict(&DenseHv::from_vec(vec![1, 1])).unwrap(), 1);
    }

    #[test]
    fn add_sub_then_refresh_updates_predictions() {
        let mut m = ClassModel::zeros(2, 4).unwrap();
        let sample = DenseHv::from_vec(vec![1, 1, 0, 0]);
        for _ in 0..5 {
            m.add(0, &sample).unwrap();
        }
        m.add(1, &DenseHv::from_vec(vec![0, 0, 1, 1])).unwrap();
        m.refresh_norms();
        assert_eq!(m.predict(&sample).unwrap(), 0);
        // Move the mass away from class 0.
        for _ in 0..5 {
            m.sub(0, &sample).unwrap();
        }
        m.add(1, &sample).unwrap();
        m.refresh_norms();
        assert_eq!(m.predict(&sample).unwrap(), 1);
    }

    #[test]
    fn zero_norm_classes_never_win() {
        let mut m = ClassModel::zeros(2, 4).unwrap();
        m.add(1, &DenseHv::from_vec(vec![1, 0, 0, 0])).unwrap();
        m.refresh_norms();
        assert_eq!(m.predict(&DenseHv::from_vec(vec![1, 0, 0, 0])).unwrap(), 1);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let mut m = toy_model();
        assert!(matches!(
            m.predict(&DenseHv::zeros(3)),
            Err(HdcError::DimensionMismatch {
                expected: 4,
                actual: 3
            })
        ));
        assert!(matches!(
            m.add(7, &DenseHv::zeros(4)),
            Err(HdcError::UnknownClass {
                label: 7,
                n_classes: 3
            })
        ));
        assert!(matches!(
            m.add(0, &DenseHv::zeros(5)),
            Err(HdcError::DimensionMismatch { .. })
        ));
        assert!(ClassModel::from_classes(vec![]).is_err());
        assert!(ClassModel::from_classes(vec![DenseHv::zeros(2), DenseHv::zeros(3)]).is_err());
    }

    #[test]
    fn class_correlation_detects_shared_component() {
        let independent = ClassModel::from_classes(vec![
            DenseHv::from_vec(vec![1, 0, 0, 0]),
            DenseHv::from_vec(vec![0, 1, 0, 0]),
        ])
        .unwrap();
        let correlated = ClassModel::from_classes(vec![
            DenseHv::from_vec(vec![10, 10, 1, 0]),
            DenseHv::from_vec(vec![10, 10, 0, 1]),
        ])
        .unwrap();
        assert!(correlated.class_correlation() > independent.class_correlation());
    }

    #[test]
    fn size_scales_linearly_with_classes() {
        // The inference-scalability complaint of §II-D: k·D·4 bytes.
        let m = toy_model();
        assert_eq!(m.size_bytes(), 3 * 4 * 4);
    }

    #[test]
    fn cosines_include_query_norm() {
        let m = toy_model();
        let cs = m.cosines(&DenseHv::from_vec(vec![10, 0, 0, 0])).unwrap();
        assert!((cs[0] - 1.0).abs() < 1e-12);
        assert!(cs[1].abs() < 1e-12);
    }

    #[test]
    fn top_k_ranks_and_clamps() {
        let m = toy_model();
        let q = DenseHv::from_vec(vec![5, 3, 1, 0]);
        let top = m.predict_top_k(&q, 2).unwrap();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 0);
        assert_eq!(top[1].0, 1);
        assert!(top[0].1 >= top[1].1);
        assert_eq!(m.predict_top_k(&q, 99).unwrap().len(), 3);
        assert!(m.predict_top_k(&DenseHv::zeros(2), 1).is_err());
    }
}
