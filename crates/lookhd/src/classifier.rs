//! The end-to-end LookHD classifier: equalized quantization → lookup
//! encoding → counter training → model compression → compressed retraining.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hdc::encoding::Encode;
use hdc::hv::DenseHv;
use hdc::levels::LevelMemory;
use hdc::model::ClassModel;
use hdc::quantize::{Quantization, Quantizer};
use hdc::train::TrainReport;
use hdc::{Classifier, FitClassifier, HdcError, Result};

use crate::chunking::ChunkLayout;
use crate::compress::{CompressedModel, CompressionConfig};
use crate::encoder::LookupEncoder;
use crate::retrain::{retrain_compressed, UpdateRule};
use crate::score_kernel::{build_kernel, KernelSpec, ScoreKernel};
use crate::score_lut::ScoreLut;
use crate::trainer::CounterTrainer;

const CLASSIFIER_MAGIC: &[u8; 4] = b"LKS1";
/// LKS1 kernel-section tag: the dense scoring path, no section follows.
const KERNEL_SECTION_NONE: u8 = 0;
/// LKS1 kernel-section tag: the score-LUT serves. A length-prefixed
/// section follows; writers leave it empty, older writers stored the
/// tables there, and readers skip it and rebuild the tables.
const KERNEL_SECTION_LUT: u8 = 1;

/// Hyperparameters of the full LookHD pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LookHdConfig {
    /// Hypervector dimensionality `D` (paper default for efficiency: 2000).
    pub dim: usize,
    /// Quantization levels `q` (paper: 2 or 4 suffice with equalization).
    pub q: usize,
    /// Chunk size `r` (paper: 5 suffices for most applications).
    pub r: usize,
    /// Quantization rule (LookHD default: equalized).
    pub quantization: Quantization,
    /// Compression settings (`P'` keys, decorrelation, grouping).
    pub compression: CompressionConfig,
    /// Maximum retraining epochs on the compressed model.
    pub retrain_epochs: usize,
    /// Fraction of the training set held out to validate compression and
    /// stop retraining (§II-B's "accuracy stabilized over the validation
    /// data, which is a part of the training dataset"). While validating,
    /// fit also shrinks the compression group size below
    /// [`CompressionConfig::max_classes_per_vector`] when validation shows
    /// quality loss — the paper's exact-mode prescription ("each compressed
    /// hypervector needs to keep the information of less than 12 classes
    /// … to eliminate the quality loss", §VI-G). Set to 0.0 to disable
    /// validation-guided fitting and keep the fixed ⌈k/12⌉ grouping.
    pub validation_fraction: f64,
    /// Which scoring kernel to build at fit time (see
    /// [`crate::score_kernel`]). [`KernelSpec::Auto`] tries the score-LUT
    /// and falls back to the dense path when its tables are over budget
    /// or out of integer bound (counted as
    /// `kernel.fallback{reason=budget|bound}`); an explicit `lut` request
    /// makes that a fit error instead.
    pub kernel: KernelSpec,
    /// RNG seed (level memory, position keys).
    pub seed: u64,
}

impl LookHdConfig {
    /// Paper defaults: `D = 2000`, `q = 4` equalized levels, `r = 5`,
    /// compression with decorrelation, 10 retraining epochs.
    pub fn new() -> Self {
        Self {
            dim: 2000,
            q: 4,
            r: 5,
            quantization: Quantization::Equalized,
            compression: CompressionConfig::new(),
            retrain_epochs: 10,
            validation_fraction: 0.15,
            kernel: KernelSpec::dense(),
            seed: 0x10_0c_4d,
        }
    }

    /// Sets the hypervector dimensionality `D`.
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Sets the quantization level count `q`.
    pub fn with_q(mut self, q: usize) -> Self {
        self.q = q;
        self
    }

    /// Sets the chunk size `r`.
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Sets the quantization rule.
    pub fn with_quantization(mut self, quantization: Quantization) -> Self {
        self.quantization = quantization;
        self
    }

    /// Sets the compression configuration.
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// Sets the maximum retraining epochs.
    pub fn with_retrain_epochs(mut self, retrain_epochs: usize) -> Self {
        self.retrain_epochs = retrain_epochs;
        self
    }

    /// Sets the held-out validation fraction (0.0 disables).
    pub fn with_validation_fraction(mut self, fraction: f64) -> Self {
        self.validation_fraction = fraction;
        self
    }

    /// Selects the scoring kernel built at fit time (see
    /// [`crate::score_kernel::KernelSpec`]).
    pub fn with_kernel(mut self, kernel: KernelSpec) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for LookHdConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A trained LookHD classifier.
///
/// # Examples
///
/// ```
/// use hdc::{Classifier, FitClassifier};
/// use lookhd::classifier::{LookHdClassifier, LookHdConfig};
///
/// // Two 10-feature classes: low values vs high values.
/// let xs: Vec<Vec<f64>> = (0..30)
///     .map(|i| vec![if i % 2 == 0 { 0.2 } else { 0.8 }; 10])
///     .collect();
/// let ys: Vec<usize> = (0..30).map(|i| i % 2).collect();
/// let config = LookHdConfig::new().with_dim(512).with_q(2).with_r(5);
/// let clf = LookHdClassifier::fit(&config, &xs, &ys)?;
/// assert_eq!(clf.predict(&[0.2; 10])?, 0);
/// assert_eq!(clf.predict(&[0.8; 10])?, 1);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LookHdClassifier {
    encoder: LookupEncoder,
    /// The uncompressed trained model (kept for analysis and ablations).
    model: ClassModel,
    compressed: CompressedModel,
    /// The scoring kernel every predict/scores call dispatches through
    /// (see [`crate::score_kernel`]). Built after retraining — precomputed
    /// kernels bake in the final combined vectors — and rebuilt at load:
    /// an artifact records only which kernel serves.
    kernel: ScoreKernel,
    report: TrainReport,
    /// The RNG seed levels/positions were generated from (for persistence).
    seed: u64,
}

impl LookHdClassifier {
    fn fit_impl(config: &LookHdConfig, features: &[Vec<f64>], labels: &[usize]) -> Result<Self> {
        let _span = obs::span("fit");
        if !(0.0..0.9).contains(&config.validation_fraction) {
            return Err(HdcError::invalid_config(
                "validation_fraction",
                "must be in [0, 0.9)",
            ));
        }
        let encoder = Self::build_encoder(config, features)?;
        let n_classes = labels.iter().max().map_or(0, |m| m + 1);
        // Counter-based training: encoding-free per sample, one counter
        // set over the whole training set.
        let mut model = CounterTrainer::fit(&encoder, features, labels, n_classes)?;
        model.refresh_norms();

        // Validation split for compression tuning and retraining stop
        // (§II-B: a part of the training dataset).
        let n_val = if config.validation_fraction > 0.0 {
            ((features.len() as f64) * config.validation_fraction).round() as usize
        } else {
            0
        };
        let use_validation = n_val >= 8 && features.len() - n_val >= 8;

        let needs_encodes = config.retrain_epochs > 0 || use_validation;
        let encoded = if needs_encodes {
            encoder.encode_batch(features)?
        } else {
            Vec::new()
        };

        // Compress; with a validation split, shrink the group size until
        // validation shows no quality loss vs the uncompressed model (exact
        // mode, §VI-G).
        let mut compressed = CompressedModel::compress(&model, &config.compression)?;
        if use_validation {
            let cut = features.len() - n_val;
            let (val_encoded, val_labels) = (&encoded[cut..], &labels[cut..]);
            let accuracy_of = |cm: &CompressedModel| -> Result<f64> {
                let mut correct = 0usize;
                for (h, &y) in val_encoded.iter().zip(val_labels) {
                    if cm.predict(h)? == y {
                        correct += 1;
                    }
                }
                Ok(correct as f64 / val_encoded.len() as f64)
            };
            let mut reference = 0usize;
            for (h, &y) in val_encoded.iter().zip(val_labels) {
                if model.predict(h)? == y {
                    reference += 1;
                }
            }
            let reference = reference as f64 / val_encoded.len() as f64;
            let tolerance = 0.015;
            let start = config.compression.max_classes_per_vector;
            let mut best = compressed;
            if accuracy_of(&best)? + tolerance < reference {
                for group in [8usize, 6, 4, 2, 1] {
                    if group >= start {
                        continue;
                    }
                    let candidate_cfg = config
                        .compression
                        .clone()
                        .with_max_classes_per_vector(group);
                    let candidate = CompressedModel::compress(&model, &candidate_cfg)?;
                    let acc = accuracy_of(&candidate)?;
                    best = candidate;
                    if acc + tolerance >= reference {
                        break;
                    }
                }
            }
            compressed = best;
        }

        // Retrain on the compressed model, rolling back to the best
        // validation snapshot when a validation split is available.
        let _retrain_span = obs::span("retrain");
        let report = if config.retrain_epochs > 0 {
            if use_validation {
                let cut = features.len() - n_val;
                crate::retrain::retrain_compressed_with_validation(
                    &mut compressed,
                    &encoded[..cut],
                    &labels[..cut],
                    &encoded[cut..],
                    &labels[cut..],
                    config.retrain_epochs,
                    3,
                    UpdateRule::Exact,
                )?
            } else {
                retrain_compressed(
                    &mut compressed,
                    &encoded,
                    labels,
                    config.retrain_epochs,
                    UpdateRule::Exact,
                )?
            }
        } else {
            TrainReport::default()
        };
        drop(_retrain_span);

        // Build the scoring kernel from the *final* compressed model —
        // retraining mutates the combined vectors precomputed kernels
        // bake in. Auto resolution (with its dense fallback) lives in
        // `build_kernel`; an explicit request the tables cannot meet
        // fails the fit.
        let kernel = build_kernel(&encoder, &compressed, &config.kernel)?;
        Ok(Self {
            encoder,
            model,
            compressed,
            kernel,
            report,
            seed: config.seed,
        })
    }

    /// Assembles a classifier from already-built parts — the streaming
    /// trainer's materialization path ([`crate::online::StreamingTrainer`]),
    /// which finalizes live counters into the same model/compression/kernel
    /// pipeline as [`Self::fit`] without holding training samples.
    pub(crate) fn from_parts(
        encoder: LookupEncoder,
        model: ClassModel,
        compressed: CompressedModel,
        kernel: ScoreKernel,
        seed: u64,
    ) -> Self {
        Self {
            encoder,
            model,
            compressed,
            kernel,
            report: TrainReport::default(),
            seed,
        }
    }

    /// The RNG seed the encoder's level/position tables were generated
    /// from (persisted with the classifier).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builds the fitted lookup encoder for a training set (quantizer fit
    /// on all training feature values, as in the paper).
    fn build_encoder(config: &LookHdConfig, features: &[Vec<f64>]) -> Result<LookupEncoder> {
        if features.is_empty() {
            return Err(HdcError::invalid_dataset("cannot train on zero samples"));
        }
        let n_features = features[0].len();
        if features.iter().any(|f| f.len() != n_features) {
            return Err(HdcError::invalid_dataset("ragged feature matrix"));
        }
        let layout = ChunkLayout::new(n_features, config.r.min(n_features), config.q)?;
        let all_values: Vec<f64> = features.iter().flatten().copied().collect();
        let quantizer = Quantizer::fit(config.quantization, &all_values, config.q)?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let levels = LevelMemory::generate(config.dim, config.q, &mut rng)?;
        LookupEncoder::new(layout, &levels, quantizer, config.seed)
    }

    /// Predicts using the *uncompressed* model (ablation / exact reference).
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn predict_uncompressed(&self, features: &[f64]) -> Result<usize> {
        let h = self.encoder.encode(features)?;
        self.model.predict(&h)
    }

    /// Predicts a batch with the *uncompressed* model.
    ///
    /// # Errors
    ///
    /// Propagates the first prediction error.
    pub fn predict_batch_uncompressed(&self, features: &[Vec<f64>]) -> Result<Vec<usize>> {
        features
            .iter()
            .map(|f| self.predict_uncompressed(f))
            .collect()
    }

    /// The lookup encoder.
    pub fn encoder(&self) -> &LookupEncoder {
        &self.encoder
    }

    /// The uncompressed trained model.
    pub fn model(&self) -> &ClassModel {
        &self.model
    }

    /// The compressed model used for inference.
    pub fn compressed(&self) -> &CompressedModel {
        &self.compressed
    }

    /// The active scoring kernel.
    pub fn kernel(&self) -> &ScoreKernel {
        &self.kernel
    }

    /// Rebuilds the scoring kernel in place from a new [`KernelSpec`]
    /// (e.g. to switch a loaded artifact onto the score-LUT without
    /// retraining). The encoder and models are untouched.
    ///
    /// # Errors
    ///
    /// Propagates kernel-build errors (the previous kernel is kept).
    pub fn set_kernel(&mut self, spec: &KernelSpec) -> Result<()> {
        self.kernel = build_kernel(&self.encoder, &self.compressed, spec)?;
        Ok(())
    }

    /// The score-LUT inference kernel, when the active kernel is one (see
    /// [`LookHdConfig::with_kernel`]).
    pub fn score_lut(&self) -> Option<&ScoreLut> {
        match &self.kernel {
            ScoreKernel::Dense => None,
            ScoreKernel::Lut(lut) => Some(lut),
        }
    }

    /// Per-class scores for a raw feature vector on the deployment path,
    /// through the active [`ScoreKernel`]; dense and lut return
    /// bit-identical values.
    ///
    /// When metrics are enabled, each call ticks `kernel.<name>.scores`.
    /// The build-time counter `kernel.fallback{reason}` is different: it
    /// ticks once per kernel build whose requested kernel fell back to
    /// dense under Auto resolution, labelled `budget` or `bound`.
    ///
    /// # Errors
    ///
    /// Propagates encoding/arity errors.
    pub fn scores(&self, features: &[f64]) -> Result<Vec<f64>> {
        match self.kernel {
            ScoreKernel::Dense => obs::counter("kernel.dense.scores", 1),
            ScoreKernel::Lut(_) => obs::counter("kernel.lut.scores", 1),
        }
        self.kernel
            .scores(&self.encoder, &self.compressed, features)
    }

    /// The compressed-retraining report.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Encodes a query without classifying it.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn encode(&self, features: &[f64]) -> Result<DenseHv> {
        self.encoder.encode(features)
    }

    /// Serializes the trained classifier (`LKS1` format): hyperparameters,
    /// the fitted quantizer boundaries, the uncompressed model, the
    /// compressed model and which kernel serves. Level and position
    /// hypervectors are *not* stored; they regenerate deterministically
    /// from the seed, which keeps the artifact close to the paper's
    /// deployable model size. Neither are the score-LUT's tables, which
    /// are derived from the rest.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when a dimension, count, or
    /// section length exceeds the format's u32 headers or the
    /// [`crate::compress::MAX_SERIAL_DIM`] /
    /// [`crate::compress::MAX_SERIAL_CLASSES`] caps, instead of silently
    /// truncating, and propagates embedded-model serialization errors.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        use crate::compress::{check_regen, serial_u32, MAX_SERIAL_DIM, MAX_SERIAL_FEATURES};
        let mut out = Vec::new();
        out.extend_from_slice(CLASSIFIER_MAGIC);
        let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        let layout = self.encoder.layout();
        let dim = self.encoder.dim();
        check_regen("q", layout.q(), dim)?;
        check_regen("n_chunks", layout.n_chunks(), dim)?;
        w32(&mut out, serial_u32("dim", dim, MAX_SERIAL_DIM)?);
        w32(&mut out, serial_u32("q", layout.q(), MAX_SERIAL_DIM)?);
        w32(&mut out, serial_u32("r", layout.r(), MAX_SERIAL_FEATURES)?);
        w32(
            &mut out,
            serial_u32("n_features", layout.n_features(), MAX_SERIAL_FEATURES)?,
        );
        out.push(match self.encoder.quantizer().kind() {
            Quantization::Linear => 0,
            Quantization::Equalized => 1,
        });
        // Retired level-scheme byte: levels always use random flips (0).
        out.push(0);
        // Retired table-mode byte: there is no chunk table to store (0).
        out.push(0);
        out.extend_from_slice(&self.seed.to_le_bytes());
        let boundaries = self.encoder.quantizer().boundaries();
        w32(
            &mut out,
            serial_u32("n_boundaries", boundaries.len(), u32::MAX as usize)?,
        );
        for &b in boundaries {
            out.extend_from_slice(&b.to_le_bytes());
        }
        let model_bytes = hdc::persist::model_to_bytes(&self.model)
            .map_err(|e| HdcError::invalid_config("model", format!("embedded model: {e}")))?;
        w32(
            &mut out,
            serial_u32("model section length", model_bytes.len(), u32::MAX as usize)?,
        );
        out.extend_from_slice(&model_bytes);
        let compressed_bytes = self.compressed.to_bytes()?;
        w32(
            &mut out,
            serial_u32(
                "compressed section length",
                compressed_bytes.len(),
                u32::MAX as usize,
            )?,
        );
        out.extend_from_slice(&compressed_bytes);
        // The kernel-section tag byte is mandatory (0 = dense, 1 = LUT)
        // so every truncation of the stream stays detectable. The LUT's
        // section is written empty: load rebuilds the tables.
        match &self.kernel {
            ScoreKernel::Dense => out.push(KERNEL_SECTION_NONE),
            ScoreKernel::Lut(_) => {
                out.push(KERNEL_SECTION_LUT);
                w32(&mut out, 0);
            }
        }
        Ok(out)
    }

    /// Deserializes a classifier written by [`LookHdClassifier::to_bytes`],
    /// regenerating level and position hypervectors from the stored seed
    /// and, for tag 1, rebuilding the score-LUT with
    /// `build_kernel(.., &KernelSpec::Auto)`, the call fit makes. Bytes an
    /// older writer stored in the tag-1 section are skipped. A model the
    /// score-LUT can no longer serve loads on the dense path, counted as
    /// a `kernel.fallback`.
    ///
    /// Length headers are validated against the remaining stream length
    /// and the [`crate::compress::MAX_SERIAL_DIM`] cap before any
    /// allocation, so corrupt or hostile headers produce an error rather
    /// than a multi-GB allocation; trailing bytes after the kernel
    /// section are rejected with the offending byte offset. The header
    /// `dim` must match both embedded models, and the two models' class
    /// counts must agree.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for a malformed, truncated, or
    /// over-long stream or disagreeing sections.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let bad = |m: &str| HdcError::invalid_dataset(m.to_owned());
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(HdcError::invalid_dataset("truncated classifier stream"));
            }
            let out = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(out)
        };
        if take(&mut pos, 4)? != CLASSIFIER_MAGIC {
            return Err(bad("bad magic: not an LKS1 classifier"));
        }
        let u32v = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(
                take(pos, 4)?.try_into().expect("len checked"),
            ))
        };
        let dim = u32v(&mut pos)? as usize;
        if dim > crate::compress::MAX_SERIAL_DIM {
            return Err(HdcError::invalid_dataset(format!(
                "dim {dim} exceeds the format limit of {}",
                crate::compress::MAX_SERIAL_DIM
            )));
        }
        let q = u32v(&mut pos)? as usize;
        let r = u32v(&mut pos)? as usize;
        let n_features = u32v(&mut pos)? as usize;
        if q > crate::compress::MAX_SERIAL_DIM {
            return Err(HdcError::invalid_dataset(format!(
                "q {q} exceeds the format limit of {}",
                crate::compress::MAX_SERIAL_DIM
            )));
        }
        if r > crate::compress::MAX_SERIAL_FEATURES
            || n_features > crate::compress::MAX_SERIAL_FEATURES
        {
            return Err(HdcError::invalid_dataset(format!(
                "r {r} / n_features {n_features} exceed the format limit of {}",
                crate::compress::MAX_SERIAL_FEATURES
            )));
        }
        // Every header field can be individually in-cap while the seeded
        // regeneration they jointly request (q level hypervectors, one
        // position key per chunk, each of `dim` elements) is still huge;
        // bound the products before any of it is built.
        crate::compress::check_regen("q", q, dim)?;
        crate::compress::check_regen("n_chunks", n_features.div_ceil(r.max(1)), dim)?;
        let quant_kind = match take(&mut pos, 1)?[0] {
            0 => Quantization::Linear,
            1 => Quantization::Equalized,
            _ => return Err(bad("unknown quantization tag")),
        };
        let level_scheme = take(&mut pos, 1)?[0];
        if level_scheme != 0 {
            return Err(HdcError::invalid_dataset(format!(
                "level_scheme tag {level_scheme} is retired: level hypervectors \
                 always use random flips (tag 0)"
            )));
        }
        // Older writers stored 1 when the chunk table passed 64 MiB; both
        // of its modes encoded identically, so either value loads.
        let table_mode = take(&mut pos, 1)?[0];
        if table_mode > 1 {
            return Err(HdcError::invalid_dataset(format!(
                "table_mode tag {table_mode} is retired: no chunk table is \
                 stored (tag 0, or 1 from older writers)"
            )));
        }
        let seed = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("len checked"));
        let n_boundaries = u32v(&mut pos)? as usize;
        // Each boundary is 8 bytes, so a header claiming more boundaries
        // than the remaining stream could hold is corrupt; checking first
        // keeps the preallocation bounded by the artifact's actual size.
        if n_boundaries > (bytes.len() - pos) / 8 {
            return Err(HdcError::invalid_dataset(format!(
                "boundary count {n_boundaries} exceeds remaining stream length"
            )));
        }
        let mut boundaries = Vec::with_capacity(n_boundaries);
        for _ in 0..n_boundaries {
            boundaries.push(f64::from_le_bytes(
                take(&mut pos, 8)?.try_into().expect("len checked"),
            ));
        }
        let model_len = u32v(&mut pos)? as usize;
        let model = hdc::persist::model_from_bytes(take(&mut pos, model_len)?)
            .map_err(|e| bad(&format!("embedded model: {e}")))?;
        let compressed_len = u32v(&mut pos)? as usize;
        let compressed = CompressedModel::from_bytes(take(&mut pos, compressed_len)?)?;
        for (section, section_dim) in [
            ("model", model.dim()),
            ("compressed model", compressed.dim()),
        ] {
            if section_dim != dim {
                return Err(HdcError::invalid_dataset(format!(
                    "header dim {dim} disagrees with the embedded {section}'s dim {section_dim}"
                )));
            }
        }
        if model.n_classes() != compressed.n_classes() {
            return Err(HdcError::invalid_dataset(format!(
                "embedded model n_classes {} disagrees with the compressed model's {}",
                model.n_classes(),
                compressed.n_classes()
            )));
        }
        let spec = match take(&mut pos, 1)?[0] {
            KERNEL_SECTION_NONE => KernelSpec::Dense,
            KERNEL_SECTION_LUT => {
                // Older writers stored the tables here: skip them.
                let section_len = u32v(&mut pos)? as usize;
                take(&mut pos, section_len)?;
                KernelSpec::Auto
            }
            other => {
                return Err(HdcError::invalid_dataset(format!(
                    "unknown kernel flag {other}"
                )))
            }
        };
        if pos != bytes.len() {
            return Err(HdcError::invalid_dataset(format!(
                "{} trailing byte(s) after classifier (offset {pos})",
                bytes.len() - pos
            )));
        }
        // Rebuild the encoder deterministically.
        let quantizer = Quantizer::from_boundaries(quant_kind, boundaries)?;
        if quantizer.levels() != q {
            return Err(bad("quantizer boundaries disagree with q"));
        }
        let layout = ChunkLayout::new(n_features, r, q)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng)?;
        let encoder = LookupEncoder::new(layout, &levels, quantizer, seed)?;
        let kernel = build_kernel(&encoder, &compressed, &spec)?;
        Ok(Self {
            encoder,
            model,
            compressed,
            kernel,
            report: TrainReport::default(),
            seed,
        })
    }
}

impl Classifier for LookHdClassifier {
    fn num_classes(&self) -> usize {
        self.model.n_classes()
    }

    /// Predicts the class of a raw feature vector through the active
    /// [`ScoreKernel`] (the deployment path). With the score-LUT kernel
    /// this is address extraction + table gathers; the dense kernel
    /// scores the compressed model directly.
    fn predict(&self, features: &[f64]) -> Result<usize> {
        let _span = obs::span("predict");
        self.kernel
            .predict(&self.encoder, &self.compressed, features)
    }

    /// One scoring pass through the active kernel's
    /// [`ScoreKernel::predict_with_margin`]: the dense and score-LUT
    /// kernels read the margin off the scores their prediction computes.
    fn predict_with_margin(&self, features: &[f64]) -> Result<(usize, Option<f64>)> {
        let _span = obs::span("predict");
        self.kernel
            .predict_with_margin(&self.encoder, &self.compressed, features)
    }

    /// Per-class scores via the inherent [`LookHdClassifier::scores`]
    /// (the active kernel; dense and lut are bit-identical).
    fn class_scores(&self, features: &[f64]) -> Result<Option<Vec<f64>>> {
        self.scores(features).map(Some)
    }

    /// The active scoring kernel's name, for telemetry surfaces.
    fn kernel_name(&self) -> Option<&'static str> {
        Some(self.kernel.name())
    }
}

impl FitClassifier for LookHdClassifier {
    type Config = LookHdConfig;

    /// Trains the full pipeline on `features`/`labels`.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for empty/ragged data and
    /// [`HdcError::InvalidConfig`] for invalid hyperparameters.
    fn fit(config: &LookHdConfig, features: &[Vec<f64>], labels: &[usize]) -> Result<Self> {
        Self::fit_impl(config, features, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// `k` Gaussian-ish blobs over `n` features with a monotone non-linear
    /// marginal (to give equalized quantization something to win on).
    fn blobs(
        n: usize,
        k: usize,
        per_class: usize,
        noise: f64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, p) in protos.iter().enumerate() {
            for _ in 0..per_class {
                let row: Vec<f64> = p
                    .iter()
                    .map(|&v| {
                        let x: f64 = v + rng.gen_range(-noise..noise);
                        x * x // skew the marginal
                    })
                    .collect();
                xs.push(row);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn fit_predict_separable_three_class() {
        let (xs, ys) = blobs(20, 3, 25, 0.05, 1);
        let config = LookHdConfig::new().with_dim(1024).with_retrain_epochs(5);
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        let acc = clf.evaluate(&xs, &ys).unwrap();
        assert!(acc > 0.9, "train accuracy too low: {acc}");
    }

    #[test]
    fn compressed_and_uncompressed_agree_on_easy_data() {
        let (xs, ys) = blobs(20, 3, 20, 0.03, 2);
        let config = LookHdConfig::new().with_dim(2048).with_retrain_epochs(0);
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        let mut agree = 0;
        for x in &xs {
            if clf.predict(x).unwrap() == clf.predict_uncompressed(x).unwrap() {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / xs.len() as f64 > 0.95,
            "compression changed too many predictions: {agree}/{}",
            xs.len()
        );
    }

    #[test]
    fn generalizes_to_held_out_samples() {
        let (xs, ys) = blobs(30, 4, 30, 0.05, 3);
        let (txs, tys) = blobs(30, 4, 8, 0.05, 3); // same protos (same seed)
        let config = LookHdConfig::new().with_dim(1024).with_retrain_epochs(5);
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        let acc = clf.evaluate(&txs, &tys).unwrap();
        assert!(acc > 0.85, "test accuracy too low: {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blobs(15, 2, 10, 0.05, 4);
        let config = LookHdConfig::new().with_dim(512).with_seed(11);
        let a = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        let b = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        assert_eq!(a.predict_batch(&xs).unwrap(), b.predict_batch(&xs).unwrap());
    }

    #[test]
    fn r_larger_than_n_is_clamped() {
        let (xs, ys) = blobs(3, 2, 10, 0.05, 5);
        let config = LookHdConfig::new().with_dim(256).with_r(10).with_q(2);
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        assert_eq!(clf.encoder().layout().r(), 3);
    }

    #[test]
    fn rejects_bad_data() {
        let config = LookHdConfig::new().with_dim(128);
        assert!(LookHdClassifier::fit(&config, &[], &[]).is_err());
        let ragged = vec![vec![0.0; 5], vec![0.0; 4]];
        assert!(LookHdClassifier::fit(&config, &ragged, &[0, 1]).is_err());
    }

    #[test]
    fn config_builder_round_trips() {
        let c = LookHdConfig::new()
            .with_dim(4000)
            .with_q(8)
            .with_r(3)
            .with_quantization(Quantization::Linear)
            .with_compression(CompressionConfig::new().with_seed(5))
            .with_retrain_epochs(2)
            .with_kernel(KernelSpec::lut())
            .with_seed(77);
        assert_eq!(c.dim, 4000);
        assert_eq!(c.q, 8);
        assert_eq!(c.r, 3);
        assert_eq!(c.quantization, Quantization::Linear);
        assert_eq!(c.retrain_epochs, 2);
        assert_eq!(c.kernel, KernelSpec::lut());
        assert_eq!(c.seed, 77);
        assert_eq!(LookHdConfig::default(), LookHdConfig::new());
    }

    #[test]
    fn score_lut_predictions_match_dense_path() {
        let (xs, ys) = blobs(13, 4, 20, 0.08, 21);
        // Decorrelated models carry the whitening projection as one more
        // table column and score exactly like the dense path too.
        for decorrelate in [false, true] {
            let base = LookHdConfig::new()
                .with_dim(512)
                .with_retrain_epochs(3)
                .with_compression(CompressionConfig::new().with_decorrelate(decorrelate));
            let dense = LookHdClassifier::fit(&base, &xs, &ys).unwrap();
            let fast =
                LookHdClassifier::fit(&base.clone().with_kernel(KernelSpec::auto()), &xs, &ys)
                    .unwrap();
            assert!(dense.score_lut().is_none());
            assert_eq!(dense.kernel().name(), "dense");
            assert_eq!(fast.kernel().name(), "lut");
            assert_eq!(Classifier::kernel_name(&fast), Some("lut"));
            let lut = fast.score_lut().expect("kernel should build");
            assert_eq!(lut.n_columns(), 4 + usize::from(decorrelate));
            assert_eq!(
                fast.predict_batch(&xs).unwrap(),
                dense.predict_batch(&xs).unwrap()
            );
            for x in &xs {
                assert_eq!(fast.scores(x).unwrap(), dense.scores(x).unwrap());
            }
        }
    }

    #[test]
    fn score_lut_falls_back_when_ineligible() {
        // Three chunks of 16^5 rows × 3 classes need 72 MiB of tables,
        // over `MAX_TABLE_BYTES`.
        let (xs, ys) = blobs(15, 3, 15, 0.08, 22);
        let starved = LookHdConfig::new()
            .with_dim(256)
            .with_q(16)
            .with_retrain_epochs(0)
            .with_compression(CompressionConfig::new().with_decorrelate(false))
            .with_kernel(KernelSpec::auto());
        let clf = LookHdClassifier::fit(&starved, &xs, &ys).unwrap();
        assert!(clf.score_lut().is_none());
        assert!(clf.predict(&xs[0]).is_ok());
        // Load resolves a LUT-tagged artifact the same way: kernel tag 1
        // and an empty section in place of tag 0 load this model dense.
        let mut bytes = clf.to_bytes().unwrap();
        *bytes.last_mut().unwrap() = KERNEL_SECTION_LUT;
        bytes.extend_from_slice(&[0; 4]);
        let back = LookHdClassifier::from_bytes(&bytes).unwrap();
        assert_eq!(back.kernel(), &ScoreKernel::Dense);
        assert_eq!(
            back.predict_batch(&xs).unwrap(),
            clf.predict_batch(&xs).unwrap()
        );
        // Explicit (non-Auto) requests fail the fit instead.
        assert!(
            LookHdClassifier::fit(&starved.clone().with_kernel(KernelSpec::lut()), &xs, &ys)
                .is_err()
        );
    }

    #[test]
    fn score_lut_survives_persistence() {
        let (xs, ys) = blobs(11, 3, 18, 0.08, 23);
        let config = LookHdConfig::new()
            .with_dim(256)
            .with_retrain_epochs(2)
            .with_compression(CompressionConfig::new().with_decorrelate(false))
            .with_kernel(KernelSpec::auto());
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        assert!(clf.score_lut().is_some());
        let bytes = clf.to_bytes().unwrap();
        let back = LookHdClassifier::from_bytes(&bytes).unwrap();
        assert_eq!(back.score_lut(), clf.score_lut());
        for x in &xs {
            assert_eq!(back.predict(x).unwrap(), clf.predict(x).unwrap());
            assert_eq!(back.scores(x).unwrap(), clf.scores(x).unwrap());
        }
        // A kernel-less artifact round-trips to a kernel-less classifier.
        let dense =
            LookHdClassifier::fit(&config.clone().with_kernel(KernelSpec::dense()), &xs, &ys)
                .unwrap();
        let back = LookHdClassifier::from_bytes(&dense.to_bytes().unwrap()).unwrap();
        assert!(back.score_lut().is_none());
        // A ±1e308 feature spans more than f64::MAX; its linear boundaries
        // stay finite and ascending, so the artifact reloads.
        let (mut xs, ys) = blobs(11, 2, 20, 0.08, 25);
        for (i, x) in xs.iter_mut().enumerate() {
            x[0] = if i % 2 == 0 { 1e308 } else { -1e308 };
        }
        let linear = config.with_quantization(Quantization::Linear).with_q(4);
        let wide = LookHdClassifier::fit(&linear, &xs, &ys).unwrap();
        let b = wide.encoder().quantizer().boundaries();
        assert!(b.iter().all(|x| x.is_finite()), "{b:?}");
        assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
        let back = LookHdClassifier::from_bytes(&wide.to_bytes().unwrap()).unwrap();
        assert_eq!(
            back.predict_batch(&xs).unwrap(),
            wide.predict_batch(&xs).unwrap()
        );
    }

    #[test]
    fn set_kernel_switches_a_loaded_artifact_between_kernels() {
        let (xs, ys) = blobs(11, 3, 18, 0.08, 24);
        let config = LookHdConfig::new()
            .with_dim(256)
            .with_retrain_epochs(2)
            .with_compression(CompressionConfig::new().with_decorrelate(false));
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        let back = LookHdClassifier::from_bytes(&clf.to_bytes().unwrap()).unwrap();
        assert_eq!(back.kernel(), &ScoreKernel::Dense);
        // `set_kernel` swaps a loaded artifact onto a different kernel
        // without retraining; the dense path is the exact reference.
        let mut switched = back.clone();
        switched.set_kernel(&KernelSpec::lut()).unwrap();
        assert_eq!(switched.kernel().name(), "lut");
        assert_eq!(
            switched.predict_batch(&xs).unwrap(),
            back.predict_batch(&xs).unwrap()
        );
        switched.set_kernel(&KernelSpec::dense()).unwrap();
        assert_eq!(switched.kernel(), &ScoreKernel::Dense);
        // A rebuild the model cannot satisfy keeps the previous kernel:
        // at q = 16 the 72 MiB of tables are over `MAX_TABLE_BYTES`.
        let (xs, ys) = blobs(15, 3, 15, 0.08, 24);
        let mut wide = LookHdClassifier::fit(&config.with_q(16), &xs, &ys).unwrap();
        assert!(wide.set_kernel(&KernelSpec::lut()).is_err());
        assert_eq!(wide.kernel(), &ScoreKernel::Dense);
        assert!(wide.predict(&xs[0]).is_ok());
    }

    #[test]
    fn retraining_report_is_populated() {
        let (xs, ys) = blobs(20, 3, 15, 0.1, 6);
        let config = LookHdConfig::new().with_dim(512).with_retrain_epochs(4);
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        assert!(clf.report().epochs_run() >= 1);
    }

    #[test]
    fn model_size_shrinks_with_compression() {
        let (xs, ys) = blobs(20, 6, 10, 0.05, 7);
        let config = LookHdConfig::new().with_dim(512).with_retrain_epochs(0);
        let clf = LookHdClassifier::fit(&config, &xs, &ys).unwrap();
        assert!(clf.compressed().size_bytes() < clf.model().size_bytes());
        // Without a validation split (so no adaptive grouping), 6 classes
        // compress into one vector.
        let fixed =
            LookHdClassifier::fit(&config.clone().with_validation_fraction(0.0), &xs, &ys).unwrap();
        assert_eq!(
            fixed.model().size_bytes() / fixed.compressed().size_bytes(),
            6
        );
    }
}
