//! Initial training and iterative retraining (§II-B).
//!
//! Initial training bundles (element-wise adds) every encoded sample into
//! its class hypervector. Retraining then revisits the training set for a
//! few epochs: each misclassified sample is added to its true class and
//! subtracted from the wrongly predicted class — a perceptron-style update
//! in hyperspace.

use crate::error::{HdcError, Result};
use crate::hv::DenseHv;
use crate::model::ClassModel;

/// Per-epoch statistics produced by [`retrain`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Number of misclassified training samples (model updates) this epoch.
    pub updates: usize,
    /// Training accuracy measured during the epoch's pass.
    pub train_accuracy: f64,
}

/// Summary of a retraining run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// One entry per epoch actually executed.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Number of epochs executed.
    pub fn epochs_run(&self) -> usize {
        self.epochs.len()
    }

    /// Total model updates across all epochs.
    pub fn total_updates(&self) -> usize {
        self.epochs.iter().map(|e| e.updates).sum()
    }

    /// Average updates per epoch (0.0 when no epochs ran) — the statistic
    /// the paper's retraining-cost evaluation uses (§VI-E).
    pub fn avg_updates_per_epoch(&self) -> f64 {
        if self.epochs.is_empty() {
            0.0
        } else {
            self.total_updates() as f64 / self.epochs.len() as f64
        }
    }

    /// Final training accuracy (0.0 when no epochs ran).
    pub fn final_accuracy(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.train_accuracy)
    }
}

/// Bundles pre-encoded samples into a fresh class model
/// (`C_i = Σ_{j ∈ class_i} H_j`).
///
/// # Errors
///
/// Returns [`HdcError::InvalidDataset`] when `encoded` is empty or length
/// differs from `labels`, [`HdcError::UnknownClass`] for an out-of-range
/// label, and [`HdcError::DimensionMismatch`] for inconsistent dimensions.
pub fn initial_fit(encoded: &[DenseHv], labels: &[usize], n_classes: usize) -> Result<ClassModel> {
    let _span = obs::span("bundle_train");
    if encoded.is_empty() {
        return Err(HdcError::invalid_dataset("cannot train on zero samples"));
    }
    if encoded.len() != labels.len() {
        return Err(HdcError::invalid_dataset(format!(
            "{} samples but {} labels",
            encoded.len(),
            labels.len()
        )));
    }
    let mut model = ClassModel::zeros(n_classes, encoded[0].dim())?;
    for (h, &y) in encoded.iter().zip(labels) {
        model.add(y, h)?;
    }
    model.refresh_norms();
    Ok(model)
}

/// Runs up to `max_epochs` of perceptron-style retraining, stopping early
/// when an epoch completes with zero updates (the model has stabilized).
///
/// Updates are applied online (immediately after each misprediction), the
/// usual software HDC retraining regime; the FPGA variant in
/// `lookhd::retrain` stages updates on a copy instead (§V-C).
///
/// # Errors
///
/// Returns [`HdcError::InvalidDataset`] if `encoded` and `labels` lengths
/// differ, plus any model-update error.
pub fn retrain(
    model: &mut ClassModel,
    encoded: &[DenseHv],
    labels: &[usize],
    max_epochs: usize,
) -> Result<TrainReport> {
    if encoded.len() != labels.len() {
        return Err(HdcError::invalid_dataset(format!(
            "{} samples but {} labels",
            encoded.len(),
            labels.len()
        )));
    }
    let mut report = TrainReport::default();
    for epoch in 0..max_epochs {
        let mut updates = 0usize;
        let mut correct = 0usize;
        for (h, &y) in encoded.iter().zip(labels) {
            let pred = model.predict(h)?;
            if pred == y {
                correct += 1;
            } else {
                model.add(y, h)?;
                model.sub(pred, h)?;
                model.refresh_norms();
                updates += 1;
            }
        }
        report.epochs.push(EpochStats {
            epoch,
            updates,
            train_accuracy: correct as f64 / encoded.len().max(1) as f64,
        });
        if updates == 0 {
            break;
        }
    }
    Ok(report)
}

/// Runs retraining with the paper's stopping rule: "the retraining needs
/// to be continued for a few iterations until the HDC accuracy stabilized
/// over the validation data, which is a part of the training dataset"
/// (§II-B). Epochs run until validation accuracy has not improved for
/// `patience` consecutive epochs (or `max_epochs` is reached); the model
/// is rolled back to the best validation snapshot.
///
/// # Errors
///
/// Returns [`HdcError::InvalidDataset`] for empty or mismatched inputs,
/// plus any model-update error.
#[allow(clippy::too_many_arguments)]
pub fn retrain_with_validation(
    model: &mut ClassModel,
    train_encoded: &[DenseHv],
    train_labels: &[usize],
    val_encoded: &[DenseHv],
    val_labels: &[usize],
    max_epochs: usize,
    patience: usize,
) -> Result<TrainReport> {
    if val_encoded.is_empty() || val_encoded.len() != val_labels.len() {
        return Err(HdcError::invalid_dataset(
            "validation split must be non-empty and consistent",
        ));
    }
    let val_accuracy = |m: &ClassModel| -> Result<f64> {
        let mut correct = 0usize;
        for (h, &y) in val_encoded.iter().zip(val_labels) {
            if m.predict(h)? == y {
                correct += 1;
            }
        }
        Ok(correct as f64 / val_encoded.len() as f64)
    };
    let mut best = model.clone();
    let mut best_acc = val_accuracy(model)?;
    let mut since_best = 0usize;
    let mut report = TrainReport::default();
    for epoch in 0..max_epochs {
        let mut epoch_report = retrain(model, train_encoded, train_labels, 1)?;
        if let Some(mut stats) = epoch_report.epochs.pop() {
            stats.epoch = epoch;
            report.epochs.push(stats);
        }
        let acc = val_accuracy(model)?;
        if acc > best_acc {
            best_acc = acc;
            best = model.clone();
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= patience {
                break;
            }
        }
        if report.epochs.last().is_some_and(|e| e.updates == 0) {
            break;
        }
    }
    *model = best;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hv::BipolarHv;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a noisy two-class dataset of encoded hypervectors around two
    /// random bipolar prototypes.
    fn noisy_dataset(
        dim: usize,
        per_class: usize,
        noise_flips: usize,
        seed: u64,
    ) -> (Vec<DenseHv>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos = [
            BipolarHv::random(dim, &mut rng),
            BipolarHv::random(dim, &mut rng),
        ];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, proto) in protos.iter().enumerate() {
            for _ in 0..per_class {
                let mut hv = proto.clone();
                let idx: Vec<usize> = (0..noise_flips).map(|_| rng.gen_range(0..dim)).collect();
                hv.flip(&idx);
                xs.push(DenseHv::from(&hv));
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn initial_fit_separates_clean_classes() {
        let (xs, ys) = noisy_dataset(512, 20, 50, 1);
        let model = initial_fit(&xs, &ys, 2).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(h, &y)| model.predict(h).unwrap() == y)
            .count();
        assert_eq!(correct, xs.len());
    }

    #[test]
    fn initial_fit_matches_manual_sum() {
        let (xs, ys) = noisy_dataset(64, 3, 5, 2);
        let model = initial_fit(&xs, &ys, 2).unwrap();
        let mut manual = DenseHv::zeros(64);
        for (h, &y) in xs.iter().zip(&ys) {
            if y == 0 {
                manual.add_assign_hv(h);
            }
        }
        assert_eq!(model.class(0), &manual);
    }

    #[test]
    fn retrain_stops_early_when_perfect() {
        let (xs, ys) = noisy_dataset(512, 10, 20, 3);
        let mut model = initial_fit(&xs, &ys, 2).unwrap();
        let report = retrain(&mut model, &xs, &ys, 10).unwrap();
        assert!(report.epochs_run() <= 2, "should converge fast: {report:?}");
        assert_eq!(report.final_accuracy(), 1.0);
    }

    #[test]
    fn retrain_improves_a_deliberately_corrupted_model() {
        let (xs, ys) = noisy_dataset(512, 25, 120, 4);
        let mut model = initial_fit(&xs, &ys, 2).unwrap();
        // Corrupt class 0 by negating its accumulated mass (subtract it twice),
        // so class-0 queries anti-correlate with their own class hypervector.
        for (h, &y) in xs.iter().zip(&ys) {
            if y == 0 {
                model.sub(0, h).unwrap();
                model.sub(0, h).unwrap();
            }
        }
        model.refresh_norms();
        let acc_before = xs
            .iter()
            .zip(&ys)
            .filter(|(h, &y)| model.predict(h).unwrap() == y)
            .count() as f64
            / xs.len() as f64;
        let report = retrain(&mut model, &xs, &ys, 20).unwrap();
        assert!(
            report.final_accuracy() > acc_before,
            "retraining should recover accuracy: before={acc_before}, after={}",
            report.final_accuracy()
        );
    }

    #[test]
    fn report_statistics_are_consistent() {
        let stats = TrainReport {
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    updates: 10,
                    train_accuracy: 0.8,
                },
                EpochStats {
                    epoch: 1,
                    updates: 4,
                    train_accuracy: 0.95,
                },
            ],
        };
        assert_eq!(stats.epochs_run(), 2);
        assert_eq!(stats.total_updates(), 14);
        assert!((stats.avg_updates_per_epoch() - 7.0).abs() < 1e-12);
        assert!((stats.final_accuracy() - 0.95).abs() < 1e-12);
        assert_eq!(TrainReport::default().avg_updates_per_epoch(), 0.0);
    }

    #[test]
    fn validates_inputs() {
        let (xs, ys) = noisy_dataset(64, 2, 5, 5);
        assert!(initial_fit(&[], &[], 2).is_err());
        assert!(initial_fit(&xs, &ys[..1], 2).is_err());
        let mut model = initial_fit(&xs, &ys, 2).unwrap();
        assert!(retrain(&mut model, &xs, &ys[..1], 1).is_err());
        // Out-of-range label
        assert!(initial_fit(&xs, &vec![9; xs.len()], 2).is_err());
    }

    #[test]
    fn validation_stop_keeps_best_model() {
        let (xs, ys) = noisy_dataset(512, 20, 120, 7);
        // Corrupt so retraining has real work to do.
        let mut model = initial_fit(&xs, &ys, 2).unwrap();
        for (h, &y) in xs.iter().zip(&ys) {
            if y == 0 {
                model.sub(0, h).unwrap();
                model.sub(0, h).unwrap();
            }
        }
        model.refresh_norms();
        // Use the tail of the data as validation.
        let (vx, vy) = (&xs[30..], &ys[30..]);
        let report =
            retrain_with_validation(&mut model, &xs[..30], &ys[..30], vx, vy, 20, 3).unwrap();
        assert!(report.epochs_run() >= 1);
        let val_acc = vx
            .iter()
            .zip(vy)
            .filter(|(h, &y)| model.predict(h).unwrap() == y)
            .count() as f64
            / vx.len() as f64;
        assert!(val_acc > 0.8, "validation accuracy too low: {val_acc}");
    }

    #[test]
    fn validation_stop_validates_inputs() {
        let (xs, ys) = noisy_dataset(64, 2, 5, 8);
        let mut model = initial_fit(&xs, &ys, 2).unwrap();
        assert!(retrain_with_validation(&mut model, &xs, &ys, &[], &[], 5, 2).is_err());
    }

    #[test]
    fn zero_epochs_is_a_no_op() {
        let (xs, ys) = noisy_dataset(64, 2, 5, 6);
        let mut model = initial_fit(&xs, &ys, 2).unwrap();
        let before = model.class(0).clone();
        let report = retrain(&mut model, &xs, &ys, 0).unwrap();
        assert_eq!(report.epochs_run(), 0);
        assert_eq!(model.class(0), &before);
    }
}
