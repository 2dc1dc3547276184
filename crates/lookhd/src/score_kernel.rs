//! Score kernels: the two exact scoring arithmetics
//! [`LookHdClassifier`](crate::classifier::LookHdClassifier) serves
//! through.
//!
//! * [`ScoreKernel::Dense`] — encode the query hypervector and score it
//!   against the compressed model (Eq. 5). The exact reference.
//! * [`ScoreKernel::Lut`] — the precomputed per-chunk partial-score tables
//!   of [`crate::score_lut`]; bit-identical to dense, no hypervector on
//!   the query path.
//!
//! Both kernels produce integer base scores and, for a decorrelated
//! model, the query's integer projection onto the whitening direction,
//! and both finish through `CompressedModel::finish_scores`: one
//! whitening arithmetic, so every model is eligible for either.
//!
//! Which kernel a classifier builds is chosen by [`KernelSpec`]
//! (`LookHdConfig::with_kernel`). [`KernelSpec::Auto`] resolves
//! `lut → dense`: it tries the score-LUT and silently falls back to the
//! dense path when the tables are over budget or out of integer bound,
//! counted as `kernel.fallback{reason=budget|bound}`.
//!
//! Kernels are stateless with respect to the encoder and model: every
//! scoring call receives `(&LookupEncoder, &CompressedModel)` from the
//! classifier. The score-LUT's tables are the only kernel-owned state,
//! and they are derived: a pure function of the encoder and compressed
//! model, rebuilt at load rather than persisted.

use std::fmt;
use std::str::FromStr;

use hdc::classify::argmax_margin;
use hdc::encoding::Encode;
use hdc::{HdcError, Result};

use crate::compress::CompressedModel;
use crate::encoder::LookupEncoder;
use crate::score_lut::ScoreLut;

/// Which scoring kernel a classifier builds (at fit time, on
/// [`set_kernel`](crate::classifier::LookHdClassifier::set_kernel) and on
/// every online refresh).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelSpec {
    /// Resolve automatically: try the score-LUT, fall back to dense when
    /// its tables are over [`MAX_TABLE_BYTES`](crate::score_lut::MAX_TABLE_BYTES),
    /// over the build-work bound or out of integer bound.
    Auto,
    /// Always the dense compressed scoring path (the exact reference).
    #[default]
    Dense,
    /// The precomputed score-LUT tables ([`crate::score_lut`]); an
    /// ineligible model is a hard error (use [`KernelSpec::Auto`] for
    /// silent fallback).
    Lut,
}

impl KernelSpec {
    /// Auto resolution (`lut → dense` fallback).
    pub fn auto() -> Self {
        Self::Auto
    }

    /// The dense scoring path.
    pub fn dense() -> Self {
        Self::Dense
    }

    /// The score-LUT kernel (hard error when ineligible).
    pub fn lut() -> Self {
        Self::Lut
    }
}

/// The lower-case name the CLI parses.
impl fmt::Display for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelSpec::Auto => "auto",
            KernelSpec::Dense => "dense",
            KernelSpec::Lut => "lut",
        })
    }
}

impl FromStr for KernelSpec {
    type Err = HdcError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "auto" => Ok(KernelSpec::Auto),
            "dense" => Ok(KernelSpec::Dense),
            "lut" => Ok(KernelSpec::Lut),
            other => Err(HdcError::invalid_config(
                "kernel",
                format!("unknown kernel '{other}' (expected auto, dense, or lut)"),
            )),
        }
    }
}

/// The scoring kernel a classifier predicts and scores through. Both
/// variants are exact: the score-LUT returns scores bit-identical to the
/// dense path. Batches are the classifier's: it maps the per-query
/// calls in order.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreKernel {
    /// Dense compressed scoring (Eq. 5): encode the query hypervector and
    /// score it against the compressed model. Stateless.
    Dense,
    /// The precomputed score-LUT tables: address extraction plus `m`
    /// table gathers (see [`crate::score_lut`] for the exactness
    /// argument).
    Lut(ScoreLut),
}

impl ScoreKernel {
    /// Stable kernel name (`"dense"`, `"lut"`) used by the CLI, `info`
    /// output, and the `kernel.<name>.*` telemetry scheme.
    pub fn name(&self) -> &'static str {
        match self {
            ScoreKernel::Dense => "dense",
            ScoreKernel::Lut(_) => "lut",
        }
    }

    /// Per-class scores for one raw feature vector.
    ///
    /// # Errors
    ///
    /// Propagates encoding/arity errors.
    pub fn scores(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<Vec<f64>> {
        match self {
            ScoreKernel::Dense => compressed.scores(&encoder.encode(features)?),
            ScoreKernel::Lut(lut) => lut.scores(compressed, &encoder.addresses(features)?),
        }
    }

    /// Predicted label: the first-maximum argmax over
    /// [`ScoreKernel::scores`].
    ///
    /// # Errors
    ///
    /// Propagates encoding/arity errors.
    pub fn predict(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<usize> {
        Ok(argmax_margin(&self.scores(encoder, compressed, features)?).0)
    }

    /// Predicted label and top1−top2 score margin from one scoring pass:
    /// [`argmax_margin`] over [`ScoreKernel::scores`], so the label is
    /// the one [`ScoreKernel::predict`] returns. The serve path reads its
    /// margin telemetry from this instead of scoring a second time.
    ///
    /// # Errors
    ///
    /// Propagates encoding/arity errors.
    pub fn predict_with_margin(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<(usize, Option<f64>)> {
        Ok(argmax_margin(&self.scores(encoder, compressed, features)?))
    }

    /// Bytes of precomputed kernel state (0 for the stateless dense path).
    pub fn size_bytes(&self) -> usize {
        match self {
            ScoreKernel::Dense => 0,
            ScoreKernel::Lut(lut) => lut.size_bytes(),
        }
    }

    /// One-line human summary for `info` output, naming the score-LUT's
    /// projection column when `compressed` is whitened.
    pub fn describe(&self, compressed: &CompressedModel) -> String {
        match self {
            ScoreKernel::Dense => "dense compressed scoring (no precomputed state)".to_owned(),
            ScoreKernel::Lut(lut) => {
                let projection = match compressed.n_directions() {
                    0 => String::new(),
                    n => format!(" + {n} projection column"),
                };
                format!(
                    "{} chunk tables x {} classes{projection}, {} B precomputed",
                    lut.n_chunks(),
                    compressed.n_classes(),
                    lut.size_bytes()
                )
            }
        }
    }
}

/// Builds the kernel a [`KernelSpec`] asks for from a fitted encoder and
/// compressed model.
///
/// [`KernelSpec::Auto`] resolves `lut → dense`: a model the score-LUT
/// cannot serve falls back to [`ScoreKernel::Dense`] silently, ticking
/// `kernel.fallback{reason=budget|bound}` with the reason
/// [`ScoreLut::build`] returns
/// ([`BuildError::fallback_reason`](crate::score_lut::BuildError::fallback_reason)).
/// An explicit [`KernelSpec::Lut`] propagates the build error instead.
///
/// # Errors
///
/// Returns the underlying [`ScoreLut::build`] error for an explicit
/// [`KernelSpec::Lut`] request the model cannot satisfy, and for an
/// encoder and model that disagree on `D` under any spec but dense.
pub fn build_kernel(
    encoder: &LookupEncoder,
    compressed: &CompressedModel,
    spec: &KernelSpec,
) -> Result<ScoreKernel> {
    let lut = || ScoreLut::build(encoder, compressed);
    match spec {
        KernelSpec::Dense => Ok(ScoreKernel::Dense),
        KernelSpec::Lut => Ok(ScoreKernel::Lut(lut()?)),
        KernelSpec::Auto => match lut() {
            Ok(lut) => Ok(ScoreKernel::Lut(lut)),
            // Over budget or out of bound: the dense path serves
            // identically, just slower.
            Err(err) => {
                let Some(reason) = err.fallback_reason() else {
                    return Err(err.into());
                };
                if obs::enabled() {
                    let id = obs::intern_counter("kernel.fallback", &[("reason", reason)]);
                    obs::counter_id(id, 1);
                }
                Ok(ScoreKernel::Dense)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::hv::DenseHv;
    use hdc::levels::LevelMemory;
    use hdc::model::ClassModel;
    use hdc::quantize::{Quantization, Quantizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::chunking::ChunkLayout;
    use crate::compress::CompressionConfig;

    /// A fitted encoder + compressed model pair over random classes (same
    /// harness as the score-LUT tests).
    fn setup(
        n: usize,
        r: usize,
        q: usize,
        dim: usize,
        k: usize,
        group: usize,
        seed: u64,
    ) -> (LookupEncoder, CompressedModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        let encoder = LookupEncoder::new(layout, &levels, quantizer, seed).unwrap();
        let classes = (0..k)
            .map(|_| DenseHv::from_vec((0..dim).map(|_| rng.gen_range(-30..=30)).collect()))
            .collect();
        let model = ClassModel::from_classes(classes).unwrap();
        let config = CompressionConfig::new()
            .with_decorrelate(false)
            .with_max_classes_per_vector(group);
        let compressed = CompressedModel::compress(&model, &config).unwrap();
        (encoder, compressed)
    }

    fn random_features(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    #[test]
    fn kernel_spec_parses_and_displays() {
        for (s, k) in [
            ("auto", KernelSpec::auto()),
            ("dense", KernelSpec::dense()),
            ("lut", KernelSpec::lut()),
        ] {
            assert_eq!(s.parse::<KernelSpec>().unwrap(), k);
            assert_eq!(k.to_string(), s);
        }
        assert!("LUT".parse::<KernelSpec>().is_err());
        assert!("binary".parse::<KernelSpec>().is_err());
        assert!("".parse::<KernelSpec>().is_err());
        assert_eq!(KernelSpec::default(), KernelSpec::dense());
    }

    #[test]
    fn factory_resolves_each_kind() {
        let (encoder, compressed) = setup(10, 5, 4, 128, 3, 12, 1);
        for (spec, name) in [
            (KernelSpec::dense(), "dense"),
            (KernelSpec::auto(), "lut"),
            (KernelSpec::lut(), "lut"),
        ] {
            let kernel = build_kernel(&encoder, &compressed, &spec).unwrap();
            assert_eq!(kernel.name(), name, "spec {spec:?}");
            assert!(!kernel.describe(&compressed).is_empty());
        }
        // Auto falls back to dense when the LUT cannot be built, counted
        // under the reason `ScoreLut::build` returns: three chunks of
        // 16^5 rows × 3 classes need 72 MiB, over `MAX_TABLE_BYTES`…
        let (encoder, compressed) = setup(15, 5, 16, 64, 3, 12, 1);
        let budget = || obs::snapshot().counter_labeled("kernel.fallback", &[("reason", "budget")]);
        // The registry is process-global: this test only switches it on
        // and reads a counter that concurrent tests can only raise.
        obs::set_enabled(true);
        let before = budget();
        let kernel = build_kernel(&encoder, &compressed, &KernelSpec::auto()).unwrap();
        assert_eq!(kernel, ScoreKernel::Dense);
        assert!(budget() > before);
        let err = ScoreLut::build(&encoder, &compressed).unwrap_err();
        assert_eq!(err.fallback_reason(), Some("budget"));
        // …but an explicit request is a hard error.
        assert!(build_kernel(&encoder, &compressed, &KernelSpec::lut()).is_err());
    }

    #[test]
    fn whitened_models_build_a_lut_with_a_projection_column() {
        let mut rng = StdRng::seed_from_u64(3);
        let levels = LevelMemory::generate(64, 4, &mut rng).unwrap();
        let samples: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, 4).unwrap();
        let layout = ChunkLayout::new(10, 5, 4).unwrap();
        let encoder = LookupEncoder::new(layout, &levels, quantizer, 3).unwrap();
        let classes = (0..3)
            .map(|_| DenseHv::from_vec((0..64).map(|_| rng.gen_range(-20..=20)).collect()))
            .collect();
        let model = ClassModel::from_classes(classes).unwrap();
        let whitened = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        assert_eq!(whitened.n_directions(), 1);
        for spec in [KernelSpec::lut(), KernelSpec::auto()] {
            let kernel = build_kernel(&encoder, &whitened, &spec).unwrap();
            assert_eq!(kernel.name(), "lut", "spec {spec:?}");
            assert!(
                kernel.describe(&whitened).contains("+ 1 projection column"),
                "{}",
                kernel.describe(&whitened)
            );
        }
    }

    #[test]
    fn dense_and_lut_kernels_agree_bit_for_bit() {
        let (encoder, compressed) = setup(13, 5, 4, 200, 7, 3, 31);
        let dense = build_kernel(&encoder, &compressed, &KernelSpec::dense()).unwrap();
        let lut = build_kernel(&encoder, &compressed, &KernelSpec::lut()).unwrap();
        assert_eq!(dense.size_bytes(), 0);
        assert!(lut.size_bytes() > 0);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let features = random_features(13, &mut rng);
            assert_eq!(
                dense.scores(&encoder, &compressed, &features).unwrap(),
                lut.scores(&encoder, &compressed, &features).unwrap()
            );
            assert_eq!(
                dense.predict(&encoder, &compressed, &features).unwrap(),
                lut.predict(&encoder, &compressed, &features).unwrap()
            );
            assert_eq!(
                dense
                    .predict_with_margin(&encoder, &compressed, &features)
                    .unwrap(),
                lut.predict_with_margin(&encoder, &compressed, &features)
                    .unwrap()
            );
        }
    }
}
