//! Feature quantization: linear (baseline) and equalized (LookHD §III-B).
//!
//! HDC represents feature values with one of `q` level hypervectors, so the
//! continuous feature range must first be quantized into `q` discrete levels.
//! The baseline quantizes the `[f_min, f_max]` range into equal-width bins.
//! LookHD instead chooses the boundaries so that *every level receives the
//! same number of training values* (equalized / quantile quantization,
//! Fig. 3b), which lets `q = 2..4` match the accuracy of `q = 16` linear
//! levels (Fig. 4).

use crate::error::{HdcError, Result};

/// Which boundary-selection rule to use when fitting a quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quantization {
    /// Equal-width bins over `[f_min, f_max]` (the baseline HDC rule).
    Linear,
    /// Equal-mass (quantile) bins over the empirical training distribution
    /// (the LookHD rule).
    #[default]
    Equalized,
}

/// A fitted quantizer mapping `f64` feature values to level indices
/// `0..q`.
///
/// The quantizer stores `q - 1` sorted interior boundaries; value `x` maps
/// to the number of boundaries at or below it (values on a boundary go to
/// the upper level). Values outside the training range clamp to the extreme
/// levels.
///
/// # Examples
///
/// ```
/// use hdc::quantize::{Quantization, Quantizer};
///
/// let samples: Vec<f64> = (0..100).map(f64::from).collect();
/// let q = Quantizer::fit(Quantization::Linear, &samples, 4)?;
/// assert_eq!(q.level(0.0), 0);
/// assert_eq!(q.level(99.0), 3);
/// assert_eq!(q.levels(), 4);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantizer {
    boundaries: Vec<f64>,
    q: usize,
    kind: Quantization,
}

impl Quantizer {
    /// Fits a quantizer with `q` levels to the given training values.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `q < 2`, and
    /// [`HdcError::InvalidDataset`] if `values` is empty or contains a
    /// non-finite number.
    pub fn fit(kind: Quantization, values: &[f64], q: usize) -> Result<Self> {
        if q < 2 {
            return Err(HdcError::invalid_config(
                "q",
                format!("need at least 2 levels, got {q}"),
            ));
        }
        if values.is_empty() {
            return Err(HdcError::invalid_dataset(
                "cannot fit a quantizer to zero values",
            ));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(HdcError::invalid_dataset("feature values must be finite"));
        }
        let boundaries = match kind {
            Quantization::Linear => Self::linear_boundaries(values, q)?,
            Quantization::Equalized => Self::equalized_boundaries(values, q)?,
        };
        Ok(Self {
            boundaries,
            q,
            kind,
        })
    }

    /// Builds a quantizer from explicit interior boundaries (ascending).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if the boundaries are empty, not
    /// sorted, or not finite.
    pub fn from_boundaries(kind: Quantization, boundaries: Vec<f64>) -> Result<Self> {
        if boundaries.is_empty() {
            return Err(HdcError::invalid_config(
                "boundaries",
                "need at least one boundary",
            ));
        }
        if boundaries.iter().any(|b| !b.is_finite()) {
            return Err(HdcError::invalid_config(
                "boundaries",
                "boundaries must be finite",
            ));
        }
        if boundaries.windows(2).any(|w| w[0] > w[1]) {
            return Err(HdcError::invalid_config(
                "boundaries",
                "boundaries must be ascending",
            ));
        }
        let q = boundaries.len() + 1;
        Ok(Self {
            boundaries,
            q,
            kind,
        })
    }

    fn linear_boundaries(values: &[f64], q: usize) -> Result<Vec<f64>> {
        // `fit` rejects empty input, but guard here too: on empty values
        // min stays +∞ and every boundary would be non-finite.
        if values.is_empty() {
            return Err(HdcError::invalid_dataset(
                "cannot derive linear boundaries from zero values",
            ));
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        if min == max {
            // Degenerate constant feature: all boundaries collapse, every
            // value lands in the top level. Still valid.
            return Ok(vec![min; q - 1]);
        }
        let width = (max - min) / q as f64;
        if width.is_finite() {
            return Ok((1..q).map(|i| min + width * i as f64).collect());
        }
        // The range itself overflows f64 (e.g. ±1e308): interpolate from
        // the scaled endpoints, which stay finite and ascending.
        let (lo, hi) = (min / q as f64, max / q as f64);
        Ok((1..q)
            .map(|i| lo * (q - i) as f64 + hi * i as f64)
            .collect())
    }

    fn equalized_boundaries(values: &[f64], q: usize) -> Result<Vec<f64>> {
        // `fit` rejects empty input, but guard here too: with n = 0 the
        // `n - 1` clamp below underflows.
        if values.is_empty() {
            return Err(HdcError::invalid_dataset(
                "cannot derive equalized boundaries from zero values",
            ));
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values checked finite"));
        let n = sorted.len();
        Ok((1..q)
            .map(|i| {
                // The i-th q-quantile of the empirical distribution.
                let pos = (i * n) / q;
                sorted[pos.min(n - 1)]
            })
            .collect())
    }

    /// Maps a value to its level index in `0..q`: the number of
    /// boundaries `b ≤ x`, so a value on a boundary goes to the upper
    /// level and a constant feature's collapsed boundaries stay stable.
    #[inline]
    pub fn level(&self, x: f64) -> usize {
        // A branchless count over the q − 1 boundaries. On ascending
        // boundaries it equals `partition_point(|&b| b <= x)`, without
        // that search's data-dependent branches; it is at most q − 1.
        self.boundaries.iter().map(|&b| usize::from(b <= x)).sum()
    }

    /// Number of quantization levels `q`.
    pub fn levels(&self) -> usize {
        self.q
    }

    /// The fitted interior boundaries (length `q - 1`, ascending).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Number of *unreachable* interior levels: adjacent equal boundaries
    /// leave no value that can land between them. Equalized fitting on
    /// duplicate-heavy data collapses quantiles silently (more than half
    /// the mass on one value pins several quantiles to it); callers can
    /// check this to detect that fewer than `q` levels are effectively in
    /// use. Zero for any strictly-ascending boundary set.
    pub fn collapsed_levels(&self) -> usize {
        self.boundaries.windows(2).filter(|w| w[0] == w[1]).count()
    }

    /// The rule this quantizer was fitted with.
    pub fn kind(&self) -> Quantization {
        self.kind
    }

    /// Quantizes a whole feature vector.
    pub fn levels_of(&self, features: &[f64]) -> Vec<usize> {
        features.iter().map(|&x| self.level(x)).collect()
    }

    /// Histogram of level occupancy over `values` — used by the Fig. 3
    /// experiment to show equalized bins receive near-equal mass.
    pub fn occupancy(&self, values: &[f64]) -> Vec<usize> {
        let mut counts = vec![0usize; self.q];
        for &v in values {
            counts[self.level(v)] += 1;
        }
        counts
    }
}

/// Independent quantizers per feature column (an alternative to the
/// paper's single global quantizer fitted over all feature values).
///
/// Per-feature fitting helps when feature scales differ wildly (each
/// column gets its own boundaries) at the cost of `n · (q − 1)` stored
/// boundaries instead of `q − 1`. The `ablation_quantizer_scope` binary
/// measures the accuracy difference on the five applications.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureQuantizers {
    columns: Vec<Quantizer>,
}

impl FeatureQuantizers {
    /// Fits one quantizer per feature column of a row-major matrix.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for an empty or ragged matrix
    /// and propagates per-column fit errors.
    pub fn fit(kind: Quantization, rows: &[Vec<f64>], q: usize) -> Result<Self> {
        if rows.is_empty() {
            return Err(HdcError::invalid_dataset(
                "cannot fit quantizers to zero rows",
            ));
        }
        let width = rows[0].len();
        if width == 0 || rows.iter().any(|r| r.len() != width) {
            return Err(HdcError::invalid_dataset(
                "feature matrix must be rectangular and non-empty",
            ));
        }
        let mut columns = Vec::with_capacity(width);
        for j in 0..width {
            let column: Vec<f64> = rows.iter().map(|r| r[j]).collect();
            columns.push(Quantizer::fit(kind, &column, q)?);
        }
        Ok(Self { columns })
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Number of levels `q` (identical across columns).
    pub fn levels(&self) -> usize {
        self.columns[0].levels()
    }

    /// The quantizer of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.n_features()`.
    pub fn column(&self, j: usize) -> &Quantizer {
        &self.columns[j]
    }

    /// Quantizes a feature vector column-wise.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on an arity mismatch.
    pub fn levels_of(&self, features: &[f64]) -> Result<Vec<usize>> {
        if features.len() != self.columns.len() {
            return Err(HdcError::invalid_dataset(format!(
                "expected {} features, got {}",
                self.columns.len(),
                features.len()
            )));
        }
        Ok(features
            .iter()
            .zip(&self.columns)
            .map(|(&x, quantizer)| quantizer.level(x))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / n as f64).collect()
    }

    /// Heavily skewed sample (quadratic CDF) to distinguish linear from
    /// equalized fitting.
    fn skewed(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 / n as f64).powi(4)).collect()
    }

    #[test]
    fn linear_boundaries_are_equal_width() {
        let q = Quantizer::fit(Quantization::Linear, &uniform(1000), 4).unwrap();
        let b = q.boundaries();
        assert_eq!(b.len(), 3);
        let w0 = b[0];
        assert!((b[1] - 2.0 * w0).abs() < 1e-9);
        assert!((b[2] - 3.0 * w0).abs() < 1e-9);
    }

    #[test]
    fn equalized_boundaries_balance_occupancy_on_skewed_data() {
        let data = skewed(10_000);
        let lin = Quantizer::fit(Quantization::Linear, &data, 4).unwrap();
        let eq = Quantizer::fit(Quantization::Equalized, &data, 4).unwrap();
        let lin_occ = lin.occupancy(&data);
        let eq_occ = eq.occupancy(&data);
        // Linear bins are wildly unbalanced on x^4-skewed data…
        assert!(*lin_occ.iter().max().unwrap() > 5 * *lin_occ.iter().min().unwrap());
        // …equalized bins are near-uniform.
        let max = *eq_occ.iter().max().unwrap() as f64;
        let min = *eq_occ.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.1,
            "equalized occupancy unbalanced: {eq_occ:?}"
        );
    }

    #[test]
    fn level_covers_full_range_and_clamps() {
        let q = Quantizer::fit(Quantization::Linear, &uniform(100), 8).unwrap();
        assert_eq!(q.level(-100.0), 0);
        assert_eq!(q.level(100.0), 7);
        let seen: std::collections::BTreeSet<usize> =
            uniform(100).iter().map(|&x| q.level(x)).collect();
        assert_eq!(seen.len(), 8, "all 8 levels should be hit: {seen:?}");
        // A range wider than f64::MAX still gets finite, ascending
        // boundaries that spread the values over every level.
        let wide: Vec<f64> = (0..40).map(|i| (i as f64 / 19.5 - 1.0) * 1e308).collect();
        assert!((wide[39] - wide[0]).is_infinite());
        let q = Quantizer::fit(Quantization::Linear, &wide, 4).unwrap();
        let b = q.boundaries();
        assert!(b.iter().all(|x| x.is_finite()), "{b:?}");
        assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
        assert_eq!(q.level(-1e308), 0);
        assert_eq!(q.level(1e308), 3);
        assert_eq!(q.occupancy(&wide).iter().filter(|&&n| n > 0).count(), 4);
    }

    #[test]
    fn constant_feature_is_degenerate_but_valid() {
        let q = Quantizer::fit(Quantization::Linear, &[5.0; 10], 4).unwrap();
        assert_eq!(q.level(5.0), 3);
        assert_eq!(q.level(4.9), 0);
        let q = Quantizer::fit(Quantization::Equalized, &[5.0; 10], 4).unwrap();
        assert_eq!(q.level(5.0), 3);
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        assert!(matches!(
            Quantizer::fit(Quantization::Linear, &uniform(10), 1),
            Err(HdcError::InvalidConfig { parameter: "q", .. })
        ));
        assert!(matches!(
            Quantizer::fit(Quantization::Linear, &[], 4),
            Err(HdcError::InvalidDataset { .. })
        ));
        assert!(matches!(
            Quantizer::fit(Quantization::Linear, &[f64::NAN], 4),
            Err(HdcError::InvalidDataset { .. })
        ));
    }

    #[test]
    fn empty_input_errors_through_every_entry_point() {
        // The public fit path rejects empty values for both rules…
        for kind in [Quantization::Linear, Quantization::Equalized] {
            assert!(matches!(
                Quantizer::fit(kind, &[], 4),
                Err(HdcError::InvalidDataset { .. })
            ));
        }
        // …and the boundary builders guard themselves too (equalized used
        // to underflow `n - 1` when reached with zero values).
        assert!(Quantizer::linear_boundaries(&[], 4).is_err());
        assert!(Quantizer::equalized_boundaries(&[], 4).is_err());
    }

    #[test]
    fn all_equal_input_collapses_but_stays_usable() {
        for kind in [Quantization::Linear, Quantization::Equalized] {
            let q = Quantizer::fit(kind, &[5.0; 32], 4).unwrap();
            assert_eq!(q.boundaries(), &[5.0; 3]);
            // All 3 interior boundaries coincide: the 2 levels between
            // them are unreachable, which collapsed_levels reports.
            assert_eq!(q.collapsed_levels(), 2);
            assert_eq!(q.level(5.0), 3);
            assert_eq!(q.level(4.9), 0);
            assert!(q.boundaries().iter().all(|b| b.is_finite()));
        }
    }

    #[test]
    fn duplicate_heavy_input_reports_collapsed_levels() {
        // 3/4 of the mass sits on 1.0: the q=4 equalized quantiles at
        // 1/4 and 2/4 of the sorted data both land on 1.0, silently
        // merging the two middle levels.
        let mut data = vec![1.0; 75];
        data.extend((0..25).map(|i| 2.0 + i as f64 / 25.0));
        let eq = Quantizer::fit(Quantization::Equalized, &data, 4).unwrap();
        assert_eq!(eq.boundaries(), &[1.0, 1.0, 2.0]);
        assert_eq!(eq.collapsed_levels(), 1);
        // Only two levels are actually reachable on this data…
        let occupied = eq.occupancy(&data).iter().filter(|&&c| c > 0).count();
        assert_eq!(occupied, 2);
        // …while linear boundaries stay strictly ascending and lossless.
        let lin = Quantizer::fit(Quantization::Linear, &data, 4).unwrap();
        assert_eq!(lin.collapsed_levels(), 0);
        assert!(lin.boundaries().windows(2).all(|w| w[0] < w[1]));
        // A healthy equalized fit reports zero collapsed levels.
        let healthy = Quantizer::fit(Quantization::Equalized, &uniform(100), 4).unwrap();
        assert_eq!(healthy.collapsed_levels(), 0);
    }

    #[test]
    fn from_boundaries_validates() {
        assert!(Quantizer::from_boundaries(Quantization::Linear, vec![]).is_err());
        assert!(Quantizer::from_boundaries(Quantization::Linear, vec![2.0, 1.0]).is_err());
        assert!(Quantizer::from_boundaries(Quantization::Linear, vec![f64::INFINITY]).is_err());
        let q = Quantizer::from_boundaries(Quantization::Linear, vec![0.0, 1.0]).unwrap();
        assert_eq!(q.levels(), 3);
        assert_eq!(q.level(-1.0), 0);
        assert_eq!(q.level(0.5), 1);
        assert_eq!(q.level(2.0), 2);
    }

    #[test]
    fn levels_of_maps_whole_vector() {
        let q = Quantizer::fit(Quantization::Linear, &uniform(100), 2).unwrap();
        let lv = q.levels_of(&[0.0, 0.2, 0.8, 0.99]);
        assert_eq!(lv, vec![0, 0, 1, 1]);
    }

    #[test]
    fn boundary_values_go_to_upper_level() {
        let q = Quantizer::from_boundaries(Quantization::Linear, vec![1.0]).unwrap();
        assert_eq!(q.level(1.0), 1);
        assert_eq!(q.level(0.999_999), 0);
    }

    #[test]
    fn kind_is_preserved() {
        let q = Quantizer::fit(Quantization::Equalized, &uniform(10), 2).unwrap();
        assert_eq!(q.kind(), Quantization::Equalized);
    }

    #[test]
    fn equalized_on_uniform_matches_linear_closely() {
        let data = uniform(10_000);
        let lin = Quantizer::fit(Quantization::Linear, &data, 4).unwrap();
        let eq = Quantizer::fit(Quantization::Equalized, &data, 4).unwrap();
        for (a, b) in lin.boundaries().iter().zip(eq.boundaries()) {
            assert!((a - b).abs() < 0.01, "linear {a} vs equalized {b}");
        }
    }

    #[test]
    fn per_feature_quantizers_fit_each_column() {
        // Column 0 spans [0, 1]; column 1 spans [100, 200].
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64 / 100.0, 100.0 + i as f64])
            .collect();
        let fq = FeatureQuantizers::fit(Quantization::Equalized, &rows, 4).unwrap();
        assert_eq!(fq.n_features(), 2);
        assert_eq!(fq.levels(), 4);
        // A global quantizer would dump all of column 0 into level 0;
        // per-feature boundaries resolve both columns.
        let lv = fq.levels_of(&[0.9, 101.0]).unwrap();
        assert_eq!(lv[0], 3);
        assert_eq!(lv[1], 0);
        assert!(fq.column(0).boundaries()[0] < 1.0);
        assert!(fq.column(1).boundaries()[0] > 100.0);
    }

    #[test]
    fn per_feature_quantizers_validate_inputs() {
        assert!(FeatureQuantizers::fit(Quantization::Linear, &[], 4).is_err());
        let ragged = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(FeatureQuantizers::fit(Quantization::Linear, &ragged, 4).is_err());
        let rows = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let fq = FeatureQuantizers::fit(Quantization::Linear, &rows, 2).unwrap();
        assert!(fq.levels_of(&[0.5]).is_err());
    }
}
