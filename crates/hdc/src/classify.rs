//! The common classifier interface shared by every model family in this
//! workspace.
//!
//! [`Classifier`] is the object-safe inference surface: the baseline HDC
//! classifier, the LookHD classifier, and the MLP baseline all implement
//! it, so experiment drivers can hold a `Box<dyn Classifier>` and swap
//! model families without changing evaluation code. [`FitClassifier`] adds
//! the associated-config constructor, which cannot live on the object-safe
//! trait (it returns `Self`).
//!
//! # Examples
//!
//! ```
//! use hdc::classify::{Classifier, FitClassifier};
//! use hdc::classifier::{HdcClassifier, HdcConfig};
//!
//! let xs: Vec<Vec<f64>> = (0..20)
//!     .map(|i| vec![if i % 2 == 0 { 0.1 } else { 0.9 }; 4])
//!     .collect();
//! let ys: Vec<usize> = (0..20).map(|i| i % 2).collect();
//! let config = HdcConfig::new().with_dim(256).with_q(4);
//! let clf: Box<dyn Classifier> = Box::new(HdcClassifier::fit(&config, &xs, &ys)?);
//! assert_eq!(clf.num_classes(), 2);
//! assert_eq!(clf.predict(&[0.9; 4])?, 1);
//! assert!(clf.evaluate(&xs, &ys)? > 0.9);
//! # Ok::<(), hdc::HdcError>(())
//! ```

use crate::error::Result;
use crate::metrics::accuracy;

/// Object-safe inference interface of a trained classifier.
///
/// Implementations must be deterministic: the same query yields the same
/// label on every call.
pub trait Classifier {
    /// Number of classes the model distinguishes.
    fn num_classes(&self) -> usize;

    /// Predicts the label of one raw feature vector.
    ///
    /// # Errors
    ///
    /// Returns an error for a wrong-arity feature vector.
    fn predict(&self, features: &[f64]) -> Result<usize>;

    /// Predicts labels for a batch of feature vectors by mapping
    /// [`Classifier::predict`] over it in order.
    ///
    /// # Errors
    ///
    /// Propagates the first prediction error in sample order.
    fn predict_batch(&self, features: &[Vec<f64>]) -> Result<Vec<usize>> {
        features.iter().map(|f| self.predict(f)).collect()
    }

    /// Accuracy over a labelled evaluation set.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors and
    /// [`crate::HdcError::InvalidDataset`] for mismatched lengths.
    fn evaluate(&self, features: &[Vec<f64>], labels: &[usize]) -> Result<f64> {
        accuracy(&self.predict_batch(features)?, labels)
    }

    /// Per-class scores for one feature vector, when the model family
    /// exposes them (`Ok(None)` otherwise — the default). Higher is more
    /// confident; `predict` returns the argmax. The default
    /// [`Classifier::predict_with_margin`] reads its top1−top2 margin
    /// from these.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::predict`].
    fn class_scores(&self, features: &[f64]) -> Result<Option<Vec<f64>>> {
        let _ = features;
        Ok(None)
    }

    /// Predicts one feature vector together with its top1−top2 score
    /// margin ([`argmax_margin`]; `None` for score-less models, fewer
    /// than two classes, or a scoring error). The label equals
    /// [`Classifier::predict`]'s.
    ///
    /// The default runs `predict` and then
    /// [`Classifier::class_scores`]: a second scoring pass.
    /// Implementations that can read the margin off the scores their
    /// prediction already computed should override it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::predict`].
    fn predict_with_margin(&self, features: &[f64]) -> Result<(usize, Option<f64>)> {
        let label = self.predict(features)?;
        let scores = self.class_scores(features).ok().flatten();
        Ok((label, scores.and_then(|s| argmax_margin(&s).1)))
    }

    /// The name of the scoring kernel serving predictions, when the model
    /// family distinguishes kernels (`None` otherwise — the default).
    /// Telemetry surfaces (`info` output, the serve admin snapshot) report
    /// this so operators can tell which kernel actually serves — automatic
    /// kernel selection may silently fall back to a slower exact path.
    fn kernel_name(&self) -> Option<&'static str> {
        None
    }
}

/// The first-maximum argmax of `scores` (strict `>`, so ties go to the
/// lowest class, the rule every scoring path here uses) and the top1−top2
/// margin, in one scan. The margin is `None` with fewer than two scores.
pub fn argmax_margin(scores: &[f64]) -> (usize, Option<f64>) {
    let mut best = 0;
    let mut top1 = f64::NEG_INFINITY;
    let mut top2 = f64::NEG_INFINITY;
    for (i, &s) in scores.iter().enumerate() {
        if s > top1 {
            top2 = top1;
            top1 = s;
            best = i;
        } else if s > top2 {
            top2 = s;
        }
    }
    let margin = (scores.len() >= 2).then(|| (top1 - top2).max(0.0));
    (best, margin)
}

/// Training constructor for a classifier family.
///
/// Split from [`Classifier`] so the latter stays object-safe: `fit`
/// returns `Self` and refers to an associated config type, neither of
/// which a `dyn Classifier` can carry.
pub trait FitClassifier: Classifier + Sized {
    /// The hyperparameter set of this classifier family.
    type Config: Default;

    /// Trains a classifier on `features`/`labels`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid hyperparameters or an empty, ragged,
    /// or mismatched dataset.
    fn fit(config: &Self::Config, features: &[Vec<f64>], labels: &[usize]) -> Result<Self>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::HdcError;

    /// A trivial stub: classifies by sign of the first feature.
    struct SignStub;

    impl Classifier for SignStub {
        fn num_classes(&self) -> usize {
            2
        }

        fn predict(&self, features: &[f64]) -> Result<usize> {
            match features.first() {
                Some(&v) => Ok(usize::from(v >= 0.0)),
                None => Err(HdcError::invalid_dataset("empty feature vector")),
            }
        }
    }

    #[test]
    fn default_batch_and_evaluate_use_predict() {
        let clf = SignStub;
        let xs = vec![vec![-1.0], vec![2.0], vec![-0.5], vec![3.0]];
        assert_eq!(clf.predict_batch(&xs).unwrap(), vec![0, 1, 0, 1]);
        assert_eq!(clf.evaluate(&xs, &[0, 1, 0, 1]).unwrap(), 1.0);
        assert_eq!(clf.evaluate(&xs, &[1, 1, 0, 1]).unwrap(), 0.75);
    }

    #[test]
    fn argmax_margin_takes_first_maximum_and_top_two_gap() {
        assert_eq!(argmax_margin(&[1.0, 1.0, 0.5]), (0, Some(0.0)));
        assert_eq!(argmax_margin(&[0.1, 0.9, 0.9]), (1, Some(0.0)));
        assert_eq!(argmax_margin(&[0.5, 3.0, -1.0, 2.25]), (1, Some(0.75)));
        assert_eq!(argmax_margin(&[4.0]), (0, None));
        assert_eq!(argmax_margin(&[]), (0, None));
    }

    #[test]
    fn default_margin_predicts_without_scores() {
        assert_eq!(SignStub.predict_with_margin(&[-1.0]).unwrap(), (0, None));
        assert_eq!(SignStub.predict_with_margin(&[2.0]).unwrap(), (1, None));
        assert!(SignStub.predict_with_margin(&[]).is_err());
    }

    #[test]
    fn trait_object_is_usable() {
        let clf: Box<dyn Classifier> = Box::new(SignStub);
        assert_eq!(clf.num_classes(), 2);
        assert_eq!(clf.predict(&[-4.0]).unwrap(), 0);
        assert!(clf.predict(&[]).is_err());
    }
}
