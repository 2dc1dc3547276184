//! Pluggable score kernels: one seam between the classifier and its
//! scoring arithmetic.
//!
//! [`LookHdClassifier`](crate::classifier::LookHdClassifier) historically
//! hard-wired two scoring paths (dense compressed scoring and the SLT1
//! score-LUT) and dispatched between them ad hoc. This module replaces the
//! branches with one object-safe [`ScoreKernel`] trait and three
//! implementations:
//!
//! * [`DenseKernel`] — encode the query hypervector and score it against
//!   the compressed model (Eq. 5). Works for every model, including
//!   whitened (decorrelated) ones. The exact reference.
//! * [`LutKernel`] — the precomputed per-chunk partial-score tables of
//!   [`crate::score_lut`]; bit-identical to dense, no hypervector on the
//!   query path.
//! * [`BinaryKernel`] — class hypervectors mean-centered, binarized, and
//!   bit-packed into `u64` words, scored by XOR + popcount Hamming
//!   distance (the dense binary HD hardware optimizations of Schmuck et
//!   al.), with a
//!   SHEARer-style *multifold* approximation knob: score a prefix of the
//!   packed words and escalate fold by fold only while the top1−top2
//!   margin stays ambiguous.
//!
//! Which kernel a classifier builds is chosen by [`KernelSpec`]
//! (`LookHdConfig::with_kernel`). [`KernelKind::Auto`] resolves
//! `lut → dense`: it tries the score-LUT and silently falls back to the
//! dense path when the model is ineligible (whitened, over budget, out of
//! integer bound), counted as `kernel.fallback`. The binary kernel is
//! approximate, so it is never chosen automatically — only an explicit
//! [`KernelKind::Binary`] selects it.
//!
//! Kernels are stateless with respect to the encoder and model: every
//! scoring call receives `(&LookupEncoder, &CompressedModel)` from the
//! classifier, and the packed class words of [`BinaryKernel`] are the only
//! kernel-owned state. Position and `P'` key hypervectors are never
//! persisted — they rematerialize from the stored seed, and
//! [`BinaryKernel::build`] re-derives the packed class words from the
//! rematerialized model (a property the differential test suite pins
//! bit-exactly against the stored BIN1 words).

use std::any::Any;
use std::fmt;
use std::str::FromStr;

use hdc::classify::argmax_margin;
use hdc::encoding::Encode;
use hdc::hv::BipolarHv;
use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;
use crate::compress::{serial_u32, CompressedModel, MAX_SERIAL_CLASSES, MAX_SERIAL_DIM};
use crate::encoder::LookupEncoder;
use crate::score_lut::ScoreLut;

const BINARY_MAGIC: &[u8; 4] = b"BIN1";
const WORD_BITS: usize = 64;

/// LKS1 kernel-section tag: no kernel payload (dense scoring path).
pub const KERNEL_SECTION_NONE: u8 = 0;
/// LKS1 kernel-section tag: an SLT1 score-LUT section follows.
pub const KERNEL_SECTION_SLT1: u8 = 1;
/// LKS1 kernel-section tag: a BIN1 binary-kernel section follows.
pub const KERNEL_SECTION_BIN1: u8 = 2;

/// Ceiling on the serialized multifold level — far above any useful fold
/// count (folds beyond the packed word count clamp at predict time),
/// present so a corrupt BIN1 header cannot smuggle absurd values through
/// the format.
pub const MAX_MULTIFOLD: usize = 1 << 16;

/// Which scoring kernel the classifier should build at fit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Resolve automatically: try the score-LUT, fall back to dense when
    /// the model is ineligible. Never picks the (approximate) binary
    /// kernel.
    Auto,
    /// Always the dense compressed scoring path (the exact reference).
    #[default]
    Dense,
    /// The precomputed score-LUT tables ([`crate::score_lut`]); an
    /// ineligible model is a hard error (use [`KernelKind::Auto`] for
    /// silent fallback).
    Lut,
    /// Bit-packed binary Hamming scoring ([`BinaryKernel`]); approximate.
    Binary,
}

impl KernelKind {
    /// The stable lower-case name used by the CLI and telemetry.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelKind::Auto => "auto",
            KernelKind::Dense => "dense",
            KernelKind::Lut => "lut",
            KernelKind::Binary => "binary",
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for KernelKind {
    type Err = HdcError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "auto" => Ok(KernelKind::Auto),
            "dense" => Ok(KernelKind::Dense),
            "lut" => Ok(KernelKind::Lut),
            "binary" => Ok(KernelKind::Binary),
            other => Err(HdcError::invalid_config(
                "kernel",
                format!("unknown kernel '{other}' (expected auto, dense, lut, or binary)"),
            )),
        }
    }
}

/// Full kernel selection: the kind plus the knobs the individual kernels
/// consume (`budget_bytes` for the score-LUT tables, `multifold` for the
/// binary kernel's prefix-scoring level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSpec {
    /// Which kernel to build (see [`KernelKind`]).
    pub kind: KernelKind,
    /// Byte ceiling for precomputed score-LUT tables (`m·k·q^r` × 8 B);
    /// ignored by the dense and binary kernels.
    pub budget_bytes: usize,
    /// Multifold approximation level of the binary kernel: `0` (or `1`)
    /// scores every packed word; `N ≥ 2` splits the words into `N`
    /// contiguous folds and stops early once the top1−top2 margin is
    /// unambiguous. Ignored by the dense and LUT kernels.
    pub multifold: usize,
}

impl KernelSpec {
    /// Default score-LUT table budget (64 MiB — holds the Table I SPEECH
    /// shape, `124·26·4^5` entries ≈ 26 MiB, with room).
    pub const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

    /// A spec of the given kind with the default budget and multifold off.
    pub fn new(kind: KernelKind) -> Self {
        Self {
            kind,
            budget_bytes: Self::DEFAULT_BUDGET_BYTES,
            multifold: 0,
        }
    }

    /// Auto resolution (`lut → dense` fallback) under the default budget.
    pub fn auto() -> Self {
        Self::new(KernelKind::Auto)
    }

    /// The dense scoring path.
    pub fn dense() -> Self {
        Self::new(KernelKind::Dense)
    }

    /// The score-LUT kernel (hard error when ineligible).
    pub fn lut() -> Self {
        Self::new(KernelKind::Lut)
    }

    /// The binary Hamming kernel.
    pub fn binary() -> Self {
        Self::new(KernelKind::Binary)
    }

    /// Sets the score-LUT table byte budget.
    pub fn with_budget_bytes(mut self, budget_bytes: usize) -> Self {
        self.budget_bytes = budget_bytes;
        self
    }

    /// Sets the binary kernel's multifold level (`0` = off).
    pub fn with_multifold(mut self, multifold: usize) -> Self {
        self.multifold = multifold;
        self
    }
}

impl Default for KernelSpec {
    fn default() -> Self {
        Self::dense()
    }
}

/// Object-safe scoring kernel: the one seam through which
/// [`LookHdClassifier`](crate::classifier::LookHdClassifier) scores and
/// classifies queries. Batch variants stay on the classifier, which shards
/// per-query calls across the `lookhd-engine` threads — every kernel is
/// `Send + Sync`, so the same boxed kernel serves all shards.
pub trait ScoreKernel: fmt::Debug + Send + Sync {
    /// Stable kernel name (`"dense"`, `"lut"`, `"binary"`) used by the CLI,
    /// `info` output, and the `kernel.<name>.*` telemetry scheme.
    fn name(&self) -> &'static str;

    /// Per-class scores for one raw feature vector. Exact kernels return
    /// values bit-identical to the dense path; the binary kernel returns
    /// its (integer-valued) Hamming agreement scores.
    ///
    /// # Errors
    ///
    /// Propagates encoding/arity errors.
    fn scores(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<Vec<f64>>;

    /// Predicted label: first-maximum argmax over [`ScoreKernel::scores`]
    /// by default. Kernels override this when they can classify cheaper
    /// than full scoring (the binary kernel's multifold early exit).
    ///
    /// # Errors
    ///
    /// Propagates encoding/arity errors.
    fn predict(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<usize> {
        Ok(argmax_margin(&self.scores(encoder, compressed, features)?).0)
    }

    /// Predicted label and top1−top2 score margin from one scoring pass:
    /// [`argmax_margin`] over [`ScoreKernel::scores`], so the label is
    /// the one the default [`ScoreKernel::predict`] returns. The serve
    /// path reads its margin telemetry from this instead of scoring a
    /// second time.
    ///
    /// # Errors
    ///
    /// Propagates encoding/arity errors.
    fn predict_with_margin(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<(usize, Option<f64>)> {
        Ok(argmax_margin(&self.scores(encoder, compressed, features)?))
    }

    /// Whether scores are bit-identical to the dense reference path.
    fn is_exact(&self) -> bool;

    /// Bytes of precomputed kernel state (0 for the stateless dense path).
    fn size_bytes(&self) -> usize;

    /// One-line human summary for `info` output.
    fn describe(&self) -> String;

    /// The LKS1 kernel-section tag and payload, or `None` when nothing
    /// needs persisting (the dense kernel rebuilds implicitly).
    ///
    /// # Errors
    ///
    /// Propagates serialization-cap errors.
    fn persist(&self) -> Result<Option<(u8, Vec<u8>)>>;

    /// Checks the kernel's geometry and eligibility against the layout and
    /// model it will serve (used after deserialization, where the sections
    /// arrive independently).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on any disagreement.
    fn validate_against(&self, layout: &ChunkLayout, compressed: &CompressedModel) -> Result<()>;

    /// Deep copy behind the object (the classifier is `Clone`).
    fn clone_box(&self) -> Box<dyn ScoreKernel>;

    /// Downcast hook (e.g. [`LookHdClassifier::score_lut`](crate::classifier::LookHdClassifier::score_lut)).
    fn as_any(&self) -> &dyn Any;
}

impl Clone for Box<dyn ScoreKernel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Builds the kernel a [`KernelSpec`] asks for from a fitted encoder and
/// compressed model.
///
/// [`KernelKind::Auto`] resolves `lut → dense`: an ineligible score-LUT
/// build falls back to [`DenseKernel`] silently, ticking
/// `kernel.fallback`. Explicit kinds propagate build errors instead.
///
/// # Errors
///
/// Returns the underlying build error for explicit [`KernelKind::Lut`] /
/// [`KernelKind::Binary`] requests the model cannot satisfy.
pub fn build_kernel(
    encoder: &LookupEncoder,
    compressed: &CompressedModel,
    spec: &KernelSpec,
) -> Result<Box<dyn ScoreKernel>> {
    match spec.kind {
        KernelKind::Dense => Ok(Box::new(DenseKernel)),
        KernelKind::Lut => Ok(Box::new(LutKernel::build(
            encoder,
            compressed,
            spec.budget_bytes,
        )?)),
        KernelKind::Binary => Ok(Box::new(BinaryKernel::build(
            encoder,
            compressed,
            spec.multifold,
        )?)),
        KernelKind::Auto => match LutKernel::build(encoder, compressed, spec.budget_bytes) {
            Ok(kernel) => Ok(Box::new(kernel)),
            Err(_) => {
                // Ineligible (whitened / over budget / out of bound): the
                // dense path serves identically, just slower.
                obs::counter("kernel.fallback", 1);
                Ok(Box::new(DenseKernel))
            }
        },
    }
}

/// Reconstructs a kernel from an LKS1 kernel-section tag and payload.
///
/// # Errors
///
/// Returns [`HdcError::InvalidDataset`] for an unknown tag or a malformed
/// payload.
pub fn kernel_from_section(tag: u8, payload: &[u8]) -> Result<Box<dyn ScoreKernel>> {
    match tag {
        KERNEL_SECTION_NONE => Ok(Box::new(DenseKernel)),
        KERNEL_SECTION_SLT1 => Ok(Box::new(LutKernel::new(ScoreLut::from_bytes(payload)?))),
        KERNEL_SECTION_BIN1 => Ok(Box::new(BinaryKernel::from_bytes(payload)?)),
        other => Err(HdcError::invalid_dataset(format!(
            "unknown kernel flag {other}"
        ))),
    }
}

/// The dense scoring path (Eq. 5): encode the query hypervector and score
/// it against the compressed model. Stateless; works for every model,
/// including whitened ones. The exact reference every other kernel is
/// measured against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DenseKernel;

impl ScoreKernel for DenseKernel {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn scores(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<Vec<f64>> {
        let h = encoder.encode(features)?;
        compressed.scores(&h)
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn size_bytes(&self) -> usize {
        0
    }

    fn describe(&self) -> String {
        "dense compressed scoring (no precomputed state)".to_owned()
    }

    fn persist(&self) -> Result<Option<(u8, Vec<u8>)>> {
        Ok(None)
    }

    fn validate_against(&self, _layout: &ChunkLayout, _compressed: &CompressedModel) -> Result<()> {
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn ScoreKernel> {
        Box::new(*self)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The score-LUT kernel: [`ScoreLut`] behind the [`ScoreKernel`] seam.
/// Bit-identical to [`DenseKernel`] on every eligible model (see
/// [`crate::score_lut`] for the exactness argument).
#[derive(Debug, Clone, PartialEq)]
pub struct LutKernel {
    lut: ScoreLut,
}

impl LutKernel {
    /// Wraps an already-built (or deserialized) score-LUT.
    pub fn new(lut: ScoreLut) -> Self {
        Self { lut }
    }

    /// Precomputes the tables from a fitted encoder and compressed model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ScoreLut::build`].
    pub fn build(
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        budget_bytes: usize,
    ) -> Result<Self> {
        Ok(Self::new(ScoreLut::build(
            encoder,
            compressed,
            budget_bytes,
        )?))
    }

    /// The wrapped score-LUT.
    pub fn lut(&self) -> &ScoreLut {
        &self.lut
    }
}

impl ScoreKernel for LutKernel {
    fn name(&self) -> &'static str {
        "lut"
    }

    fn scores(
        &self,
        encoder: &LookupEncoder,
        _compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<Vec<f64>> {
        let addrs = encoder.addresses(features)?;
        self.lut.scores(&addrs)
    }

    fn predict(
        &self,
        encoder: &LookupEncoder,
        _compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<usize> {
        let addrs = encoder.addresses(features)?;
        self.lut.predict(&addrs)
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn size_bytes(&self) -> usize {
        self.lut.size_bytes()
    }

    fn describe(&self) -> String {
        format!(
            "{} chunk tables x {} classes, {} B precomputed",
            self.lut.n_chunks(),
            self.lut.n_classes(),
            self.lut.size_bytes()
        )
    }

    fn persist(&self) -> Result<Option<(u8, Vec<u8>)>> {
        Ok(Some((KERNEL_SECTION_SLT1, self.lut.to_bytes()?)))
    }

    fn validate_against(&self, layout: &ChunkLayout, compressed: &CompressedModel) -> Result<()> {
        self.lut.validate_against(layout, compressed)
    }

    fn clone_box(&self) -> Box<dyn ScoreKernel> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Binarizes an integer hypervector by sign: negative components map to
/// `-1`, zero and positive to `+1` (the deterministic tie rule, so
/// binarized bundling is reproducible bit for bit).
fn binarize(values: &[i32]) -> BipolarHv {
    let mut hv = BipolarHv::ones(values.len());
    for (d, &v) in values.iter().enumerate() {
        if v < 0 {
            hv.set(d, -1);
        }
    }
    hv
}

/// The bit-packed binary Hamming kernel.
///
/// At materialize time each class's effective dense weight vector
/// `W_c[d] = P'_c[d] · C_{g(c)}[d]` (the exact per-dimension weights the
/// dense path scores against) is *centered and binarized*: the class
/// vectors share a large common component `μ[d] = (1/k)·Σ_c W_c[d]`
/// (retraining grows every class from the same bundled accumulators), and
/// a raw `sign(W_c)` is dominated by it, collapsing the per-class signal.
/// The kernel therefore stores `B_c = sign(W_c − μ)` packed into
/// `⌈D/64⌉` `u64` words, plus `μ` itself (rounded to `i32`). A query is
/// encoded, its `μ`-component removed, and binarized the same way —
/// `b = sign(H − ((H·μ)/(μ·μ))·μ)` — then scored per class as
///
/// ```text
/// score_c = B_c · b = D − 2 · popcount(B_c ⊕ b)
/// ```
///
/// — one XOR + popcount per word, no multiplies (the query pays one
/// `D`-wide dot against `μ` once, independent of `k`). The argmax
/// approximates the dense argmax (exactly when the dense margin exceeds
/// the binarization quantization error); scores are not comparable to the
/// dense path's magnitudes.
///
/// ## Multifold approximation
///
/// With `multifold = N ≥ 2` the packed words are split into `N` contiguous
/// folds. Prediction scores fold by fold and, after each fold, accepts the
/// running argmax early when the top1−top2 score margin is *unambiguous*:
/// `margin ≥ 4·√(remaining bits)` (binary cross-talk on the unscored
/// suffix behaves like a ±1 random walk per pair of classes, so `4·√bits`
/// is ≈ 4σ of the possible margin drift). When every fold stays ambiguous
/// the escalation reaches the last fold and the result equals
/// multifold-off scoring exactly.
///
/// The kernel persists as a hardened `BIN1` section holding only the
/// packed class words and the centering mean — position and `P'` keys
/// rematerialize from the stored seed, and [`BinaryKernel::build`] on the
/// rematerialized model reproduces the stored words bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryKernel {
    /// Binarized class vectors `B_c = sign(W_c − μ)`, bit-packed.
    classes: Vec<BipolarHv>,
    /// The cross-class mean `μ` the classes were centered on, rounded to
    /// integers (it is an average of integer weights, so rounding is
    /// lossless to within ±0.5 against magnitudes in the thousands).
    mean: Vec<i32>,
    dim: usize,
    multifold: usize,
}

impl BinaryKernel {
    /// Materializes the kernel: binarized bundling of the compressed
    /// model's per-class weights into packed words.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] for a whitened model (the
    /// per-dimension integer weights the binarization quantizes do not
    /// exist under f64 projections) and [`HdcError::DimensionMismatch`]
    /// when the encoder and model disagree on `D`.
    pub fn build(
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        multifold: usize,
    ) -> Result<Self> {
        let _span = obs::span("binary_kernel_build");
        if compressed.n_directions() != 0 {
            return Err(HdcError::invalid_config(
                "kernel",
                "whitened (decorrelated) models score through f64 projections; \
                 the binary Hamming kernel requires decorrelate=false",
            ));
        }
        let dim = encoder.dim();
        if dim != compressed.dim() {
            return Err(HdcError::DimensionMismatch {
                expected: compressed.dim(),
                actual: dim,
            });
        }
        let k = compressed.n_classes();
        // Reconstruct the exact per-class integer weights the dense path
        // scores against: W_c[d] = C_{g(c)}[d]·P'_c[d].
        let mut weights = vec![vec![0i64; dim]; k];
        for (c, row) in weights.iter_mut().enumerate() {
            let key = compressed.key(c);
            let combined = compressed.combined(compressed.group_of(c)).as_slice();
            for (d, &w) in combined.iter().enumerate() {
                row[d] = (w as i64) * (key.value(d) as i64);
            }
        }
        // Cross-class mean μ, rounded to i32 (each W_c[d] is an i32-range
        // integer, so the rounded average fits).
        let mean: Vec<i32> = (0..dim)
            .map(|d| {
                let sum: i64 = weights.iter().map(|row| row[d]).sum();
                (sum as f64 / k as f64).round() as i32
            })
            .collect();
        let mut classes = Vec::with_capacity(k);
        for row in &weights {
            let mut hv = BipolarHv::ones(dim);
            for (d, &w) in row.iter().enumerate() {
                // B_c[d] = sign(W_c[d] − μ[d]); sign(0) → +1 (see
                // `binarize`).
                if w - (mean[d] as i64) < 0 {
                    hv.set(d, -1);
                }
            }
            classes.push(hv);
        }
        Ok(Self {
            classes,
            mean,
            dim,
            multifold,
        })
    }

    /// The configured multifold level (`0` = off).
    pub fn multifold(&self) -> usize {
        self.multifold
    }

    /// Number of classes `k`.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The binarized, packed class vector `B_c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.n_classes()`.
    pub fn class(&self, c: usize) -> &BipolarHv {
        &self.classes[c]
    }

    /// The rounded cross-class mean `μ` the class vectors were centered
    /// on before binarization.
    pub fn mean(&self) -> &[i32] {
        &self.mean
    }

    /// Binarizes an encoded query for this kernel: removes the query's
    /// component along the centering mean `μ` (the class-common signal
    /// that carries no class information), then takes signs. Falls back
    /// to a plain sign binarization when `μ = 0`.
    fn binarize_query(&self, values: &[i32]) -> BipolarHv {
        let norm2: i64 = self.mean.iter().map(|&m| (m as i64) * (m as i64)).sum();
        if norm2 == 0 {
            return binarize(values);
        }
        let dot: i64 = values
            .iter()
            .zip(&self.mean)
            .map(|(&v, &m)| (v as i64) * (m as i64))
            .sum();
        let proj = dot as f64 / norm2 as f64;
        let mut hv = BipolarHv::ones(values.len());
        for (d, (&v, &m)) in values.iter().zip(&self.mean).enumerate() {
            if (v as f64) - proj * (m as f64) < 0.0 {
                hv.set(d, -1);
            }
        }
        hv
    }

    /// Escalation rule: the top1−top2 margin is ambiguous while it is
    /// below `4·√(remaining bits)` (≈ 4σ of the pairwise margin drift the
    /// unscored suffix can still cause).
    fn ambiguous(margin: i64, remaining_bits: usize) -> bool {
        (margin as f64) < 4.0 * (remaining_bits as f64).sqrt()
    }

    /// Full (multifold-off) integer Hamming agreement scores for a packed
    /// query.
    fn scores_packed(&self, query: &BipolarHv) -> Vec<i64> {
        self.classes.iter().map(|b| b.dot(query)).collect()
    }

    /// Argmax for a packed query, with multifold early exit when enabled.
    fn predict_packed(&self, query: &BipolarHv) -> usize {
        let q_words = query.words();
        let n_words = q_words.len();
        let folds = self.multifold.min(n_words);
        if folds < 2 {
            return argmax_i64(&self.scores_packed(query));
        }
        let k = self.classes.len();
        let mut disagree = vec![0i64; k];
        let mut scored = 0usize; // words scored so far
        for fold in 0..folds {
            let end = (fold + 1) * n_words / folds;
            for (c, class) in self.classes.iter().enumerate() {
                let c_words = class.words();
                let mut pop = 0u32;
                for w in scored..end {
                    pop += (c_words[w] ^ q_words[w]).count_ones();
                }
                disagree[c] += pop as i64;
            }
            scored = end;
            if scored == n_words {
                break;
            }
            // score_c = bits − 2·disagree_c, so argmax score = first-min
            // disagree (same strict tie-break) and the score margin is
            // 2·(disagree_top2 − disagree_top1).
            let (best, margin) = top1_margin(&disagree);
            let remaining_bits = self.dim - scored * WORD_BITS;
            if !Self::ambiguous(2 * margin, remaining_bits) {
                obs::counter("kernel.binary.multifold.early_exit", 1);
                return best;
            }
        }
        top1_margin(&disagree).0
    }

    /// Serializes the kernel (`BIN1` format): `D`, class count, multifold
    /// level, the `D` `i32` centering-mean values, then each class's
    /// packed `u64` words.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when a count exceeds the format
    /// caps.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(BINARY_MAGIC);
        let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        w32(
            &mut out,
            serial_u32("binary-kernel dim", self.dim, MAX_SERIAL_DIM)?,
        );
        w32(
            &mut out,
            serial_u32(
                "binary-kernel classes",
                self.classes.len(),
                MAX_SERIAL_CLASSES,
            )?,
        );
        w32(
            &mut out,
            serial_u32("binary-kernel multifold", self.multifold, MAX_MULTIFOLD)?,
        );
        for &m in &self.mean {
            out.extend_from_slice(&m.to_le_bytes());
        }
        for class in &self.classes {
            for &word in class.words() {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Deserializes a kernel written by [`BinaryKernel::to_bytes`].
    ///
    /// Headers are validated against the remaining stream length and the
    /// [`crate::compress::MAX_SERIAL_DIM`] /
    /// [`crate::compress::MAX_SERIAL_CLASSES`] / [`MAX_MULTIFOLD`] caps
    /// *before* any allocation; set bits past `D` in a class's last word
    /// (which [`BinaryKernel::to_bytes`] never writes) and trailing bytes
    /// are rejected, so the encoding stays canonical.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for a malformed, truncated, or
    /// over-long stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(HdcError::invalid_dataset("truncated binary-kernel stream"));
            }
            let out = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(out)
        };
        if take(&mut pos, 4)? != BINARY_MAGIC {
            return Err(HdcError::invalid_dataset(
                "bad magic: not a BIN1 binary kernel",
            ));
        }
        let u32v = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(
                take(pos, 4)?.try_into().expect("len checked"),
            ))
        };
        let dim = u32v(&mut pos)? as usize;
        if dim == 0 || dim > MAX_SERIAL_DIM {
            return Err(HdcError::invalid_dataset(format!(
                "binary-kernel dim {dim} outside 1..={MAX_SERIAL_DIM}"
            )));
        }
        let k = u32v(&mut pos)? as usize;
        if k == 0 || k > MAX_SERIAL_CLASSES {
            return Err(HdcError::invalid_dataset(format!(
                "binary-kernel class count {k} outside 1..={MAX_SERIAL_CLASSES}"
            )));
        }
        let multifold = u32v(&mut pos)? as usize;
        if multifold > MAX_MULTIFOLD {
            return Err(HdcError::invalid_dataset(format!(
                "binary-kernel multifold {multifold} exceeds the format limit of {MAX_MULTIFOLD}"
            )));
        }
        let words_per_class = dim.div_ceil(WORD_BITS);
        // dim i32 mean values plus k·words_per_class u64 words, checked
        // against the remaining stream before anything is allocated.
        let total_bytes = k
            .checked_mul(words_per_class)
            .and_then(|w| w.checked_mul(8))
            .and_then(|w| w.checked_add(dim * 4))
            .filter(|&b| b <= bytes.len() - pos)
            .ok_or_else(|| {
                HdcError::invalid_dataset("binary-kernel stream too short for its class words")
            })?;
        let _ = total_bytes;
        let mut mean = Vec::with_capacity(dim);
        for _ in 0..dim {
            mean.push(i32::from_le_bytes(
                take(&mut pos, 4)?.try_into().expect("len checked"),
            ));
        }
        let tail_bits = dim % WORD_BITS;
        let tail_mask = if tail_bits == 0 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        };
        let mut classes = Vec::with_capacity(k);
        for c in 0..k {
            let mut hv = BipolarHv::ones(dim);
            for w in 0..words_per_class {
                let word = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("len checked"));
                if w + 1 == words_per_class && word & !tail_mask != 0 {
                    return Err(HdcError::invalid_dataset(format!(
                        "binary-kernel class {c} has bits set past D={dim}"
                    )));
                }
                let base = w * WORD_BITS;
                let mut bits = word;
                while bits != 0 {
                    let d = base + bits.trailing_zeros() as usize;
                    hv.set(d, -1);
                    bits &= bits - 1;
                }
            }
            classes.push(hv);
        }
        if pos != bytes.len() {
            return Err(HdcError::invalid_dataset(format!(
                "{} trailing byte(s) after binary kernel (offset {pos})",
                bytes.len() - pos
            )));
        }
        Ok(Self {
            classes,
            mean,
            dim,
            multifold,
        })
    }
}

/// First-minimum over disagreement counts (strict `<`), returning the
/// winning index and the top1−top2 gap (`0` when `k == 1`).
fn top1_margin(disagree: &[i64]) -> (usize, i64) {
    let mut best = 0usize;
    let mut best_v = i64::MAX;
    let mut second_v = i64::MAX;
    for (i, &v) in disagree.iter().enumerate() {
        if v < best_v {
            second_v = best_v;
            best_v = v;
            best = i;
        } else if v < second_v {
            second_v = v;
        }
    }
    let margin = if second_v == i64::MAX {
        0
    } else {
        second_v - best_v
    };
    (best, margin)
}

/// First-maximum argmax over i64 scores (strict `>`), matching
/// [`ScoreLut::predict`] and `CompressedModel::predict`.
fn argmax_i64(scores: &[i64]) -> usize {
    let mut best = 0;
    let mut best_score = i64::MIN;
    for (i, &s) in scores.iter().enumerate() {
        if s > best_score {
            best_score = s;
            best = i;
        }
    }
    best
}

impl ScoreKernel for BinaryKernel {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn scores(
        &self,
        encoder: &LookupEncoder,
        _compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<Vec<f64>> {
        let _span = obs::span("binary_kernel");
        obs::counter("kernel.binary.queries", 1);
        let h = encoder.encode(features)?;
        if h.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: h.dim(),
            });
        }
        let query = self.binarize_query(h.as_slice());
        Ok(self
            .scores_packed(&query)
            .iter()
            .map(|&s| s as f64)
            .collect())
    }

    fn predict(
        &self,
        encoder: &LookupEncoder,
        _compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<usize> {
        let _span = obs::span("binary_kernel");
        obs::counter("kernel.binary.queries", 1);
        let h = encoder.encode(features)?;
        if h.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: h.dim(),
            });
        }
        Ok(self.predict_packed(&self.binarize_query(h.as_slice())))
    }

    /// Two passes: the multifold predict may stop before full scores
    /// exist, so the margin comes from a separate full scoring.
    fn predict_with_margin(
        &self,
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        features: &[f64],
    ) -> Result<(usize, Option<f64>)> {
        let class = self.predict(encoder, compressed, features)?;
        let scores = self.scores(encoder, compressed, features)?;
        Ok((class, argmax_margin(&scores).1))
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn size_bytes(&self) -> usize {
        self.classes.len() * self.dim.div_ceil(WORD_BITS) * std::mem::size_of::<u64>()
            + self.mean.len() * std::mem::size_of::<i32>()
    }

    fn describe(&self) -> String {
        format!(
            "{} classes x {} packed words + centering mean ({} B), multifold {}",
            self.classes.len(),
            self.dim.div_ceil(WORD_BITS),
            self.size_bytes(),
            if self.multifold < 2 {
                "off".to_owned()
            } else {
                self.multifold.to_string()
            }
        )
    }

    fn persist(&self) -> Result<Option<(u8, Vec<u8>)>> {
        Ok(Some((KERNEL_SECTION_BIN1, self.to_bytes()?)))
    }

    fn validate_against(&self, _layout: &ChunkLayout, compressed: &CompressedModel) -> Result<()> {
        if compressed.n_directions() != 0 {
            return Err(HdcError::invalid_dataset(
                "binary-kernel section present on a whitened (decorrelated) model",
            ));
        }
        if self.dim != compressed.dim() {
            return Err(HdcError::invalid_dataset(format!(
                "binary kernel has D={}, compressed model has D={}",
                self.dim,
                compressed.dim()
            )));
        }
        if self.classes.len() != compressed.n_classes() {
            return Err(HdcError::invalid_dataset(format!(
                "binary kernel has {} classes, compressed model has {}",
                self.classes.len(),
                compressed.n_classes()
            )));
        }
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn ScoreKernel> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::hv::DenseHv;
    use hdc::levels::{LevelMemory, LevelScheme};
    use hdc::model::ClassModel;
    use hdc::quantize::{Quantization, Quantizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::compress::CompressionConfig;
    use crate::lut::TableMode;

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
        let levels = LevelMemory::generate(dim, q, LevelScheme::RandomFlips, &mut rng).unwrap();
        let samples: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        let encoder =
            LookupEncoder::new(layout, &levels, quantizer, TableMode::Materialized, seed).unwrap();
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
    fn kernel_kind_parses_and_displays() {
        for (s, k) in [
            ("auto", KernelKind::Auto),
            ("dense", KernelKind::Dense),
            ("lut", KernelKind::Lut),
            ("binary", KernelKind::Binary),
        ] {
            assert_eq!(s.parse::<KernelKind>().unwrap(), k);
            assert_eq!(k.to_string(), s);
        }
        assert!("LUT".parse::<KernelKind>().is_err());
        assert!("".parse::<KernelKind>().is_err());
    }

    #[test]
    fn spec_builders_chain() {
        let spec = KernelSpec::binary().with_multifold(4).with_budget_bytes(99);
        assert_eq!(spec.kind, KernelKind::Binary);
        assert_eq!(spec.multifold, 4);
        assert_eq!(spec.budget_bytes, 99);
        assert_eq!(KernelSpec::default(), KernelSpec::dense());
    }

    #[test]
    fn factory_resolves_each_kind() {
        let (encoder, compressed) = setup(10, 5, 4, 128, 3, 12, 1);
        for (spec, name) in [
            (KernelSpec::dense(), "dense"),
            (KernelSpec::auto(), "lut"),
            (KernelSpec::lut(), "lut"),
            (KernelSpec::binary(), "binary"),
        ] {
            let kernel = build_kernel(&encoder, &compressed, &spec).unwrap();
            assert_eq!(kernel.name(), name, "spec {spec:?}");
            assert!(!kernel.describe().is_empty());
        }
        // Auto falls back to dense when the LUT cannot be built…
        let starved = KernelSpec::auto().with_budget_bytes(1);
        let kernel = build_kernel(&encoder, &compressed, &starved).unwrap();
        assert_eq!(kernel.name(), "dense");
        // …but an explicit request is a hard error.
        assert!(build_kernel(
            &encoder,
            &compressed,
            &KernelSpec::lut().with_budget_bytes(1)
        )
        .is_err());
    }

    #[test]
    fn explicit_kernels_reject_whitened_models() {
        let mut rng = StdRng::seed_from_u64(3);
        let levels = LevelMemory::generate(64, 4, LevelScheme::RandomFlips, &mut rng).unwrap();
        let samples: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, 4).unwrap();
        let layout = ChunkLayout::new(10, 5, 4).unwrap();
        let encoder =
            LookupEncoder::new(layout, &levels, quantizer, TableMode::OnTheFly, 3).unwrap();
        let classes = (0..3)
            .map(|_| DenseHv::from_vec((0..64).map(|_| rng.gen_range(-20..=20)).collect()))
            .collect();
        let model = ClassModel::from_classes(classes).unwrap();
        let whitened = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        assert!(whitened.n_directions() > 0);
        assert!(BinaryKernel::build(&encoder, &whitened, 0).is_err());
        assert!(build_kernel(&encoder, &whitened, &KernelSpec::binary()).is_err());
        // Auto degrades to dense instead.
        let auto = build_kernel(&encoder, &whitened, &KernelSpec::auto()).unwrap();
        assert_eq!(auto.name(), "dense");
    }

    /// The packed-word scoring must equal a naive per-dimension reference
    /// of the centered sign model: `score_c = Σ_d sign(W_c[d] − μ[d]) ·
    /// sign(H[d] − proj·μ[d])` with `sign(0) = +1`, `μ` the rounded
    /// cross-class mean and `proj = (H·μ)/(μ·μ)`.
    #[test]
    fn binary_scores_match_naive_sign_reference() {
        for (n, r, q, dim, k, group) in [
            (10, 5, 4, 128, 3, 12),
            (13, 5, 4, 200, 7, 3), // remainder chunk + odd D (tail word)
        ] {
            let (encoder, compressed) = setup(n, r, q, dim, k, group, 40 + n as u64);
            let kernel = BinaryKernel::build(&encoder, &compressed, 0).unwrap();
            // Independent reconstruction of W and μ.
            let w = |c: usize, d: usize| -> i64 {
                let key = compressed.key(c);
                let combined = compressed.combined(compressed.group_of(c)).as_slice();
                (combined[d] as i64) * (key.value(d) as i64)
            };
            let mu: Vec<i64> = (0..dim)
                .map(|d| {
                    let sum: i64 = (0..k).map(|c| w(c, d)).sum();
                    (sum as f64 / k as f64).round() as i64
                })
                .collect();
            assert_eq!(
                kernel.mean(),
                mu.iter().map(|&m| m as i32).collect::<Vec<_>>().as_slice()
            );
            let mu_norm2: i64 = mu.iter().map(|&m| m * m).sum();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..20 {
                let features = random_features(n, &mut rng);
                let h = encoder.encode(&features).unwrap();
                let proj = if mu_norm2 == 0 {
                    0.0
                } else {
                    let dot: i64 = h
                        .as_slice()
                        .iter()
                        .zip(&mu)
                        .map(|(&v, &m)| v as i64 * m)
                        .sum();
                    dot as f64 / mu_norm2 as f64
                };
                let fast = kernel.scores(&encoder, &compressed, &features).unwrap();
                for (c, &got) in fast.iter().enumerate() {
                    let naive: i64 = mu
                        .iter()
                        .enumerate()
                        .map(|(d, &m)| {
                            let ws = if w(c, d) - m < 0 { -1 } else { 1 };
                            let centered = h.as_slice()[d] as f64 - proj * m as f64;
                            let hs = if centered < 0.0 { -1 } else { 1 };
                            ws * hs
                        })
                        .sum();
                    assert_eq!(got, naive as f64, "class {c} diverged (n={n})");
                }
            }
        }
    }

    #[test]
    fn multifold_full_escalation_equals_multifold_off() {
        let (encoder, compressed) = setup(13, 5, 4, 256, 5, 3, 7);
        let off = BinaryKernel::build(&encoder, &compressed, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for folds in [2usize, 3, 4, 100] {
            let multi = BinaryKernel::build(&encoder, &compressed, folds).unwrap();
            assert_eq!(multi.multifold(), folds);
            for _ in 0..30 {
                let features = random_features(13, &mut rng);
                // Early-accepted answers may legitimately differ, but on
                // these easy random models they agree; the hard invariant
                // — forced full escalation equals multifold-off — is
                // pinned by predict_packed on an ambiguous (tied) query.
                let h = encoder.encode(&features).unwrap();
                let q = binarize(h.as_slice());
                let full = argmax_i64(&off.scores_packed(&q));
                let folded = multi.predict_packed(&q);
                // Escalation only ever *accepts the running argmax
                // early*; verify agreement against the exact rule by
                // recomputing the early-exit condition is out of scope
                // here — instead pin the contract that an accepted answer
                // equals the full answer whenever no exit fired or the
                // margins are clear. On this data they always match:
                assert_eq!(folded, full, "folds={folds}");
            }
        }
    }

    #[test]
    fn multifold_on_ambiguous_query_escalates_to_exact_answer() {
        // A query orthogonal-ish to every class keeps margins tiny, so no
        // fold is unambiguous and the escalation must run to the end —
        // where the answer is exact by construction.
        let (encoder, compressed) = setup(10, 5, 2, 192, 4, 12, 11);
        let off = BinaryKernel::build(&encoder, &compressed, 0).unwrap();
        let multi = BinaryKernel::build(&encoder, &compressed, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let query = BipolarHv::random(192, &mut rng);
        assert_eq!(
            multi.predict_packed(&query),
            argmax_i64(&off.scores_packed(&query))
        );
    }

    #[test]
    fn rebuild_from_model_is_bit_identical_to_stored_words() {
        let (encoder, compressed) = setup(13, 5, 4, 200, 5, 3, 17);
        let kernel = BinaryKernel::build(&encoder, &compressed, 2).unwrap();
        let bytes = kernel.to_bytes().unwrap();
        let loaded = BinaryKernel::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, kernel);
        // Rematerialization: building again from the (encoder, model) pair
        // reproduces the stored packed words exactly.
        let rebuilt = BinaryKernel::build(&encoder, &compressed, 2).unwrap();
        for c in 0..kernel.n_classes() {
            assert_eq!(rebuilt.class(c).words(), loaded.class(c).words());
        }
        loaded
            .validate_against(encoder.layout(), &compressed)
            .unwrap();
    }

    #[test]
    fn bin1_from_bytes_rejects_corruption() {
        let (encoder, compressed) = setup(10, 5, 2, 100, 3, 12, 19); // D=100: tail word
        let kernel = BinaryKernel::build(&encoder, &compressed, 4).unwrap();
        let bytes = kernel.to_bytes().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                BinaryKernel::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} parsed"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(BinaryKernel::from_bytes(&longer).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(BinaryKernel::from_bytes(&bad_magic).is_err());
        // A dim header lying about a huge kernel is rejected before any
        // allocation (dim at offset 4).
        let mut lying = bytes.clone();
        lying[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BinaryKernel::from_bytes(&lying).is_err());
        // Tail bits past D must be zero. Class words sit after the
        // 16-byte header and the D·4-byte mean section.
        let words_per = 100usize.div_ceil(64);
        let first_class_last_word = 16 + 100 * 4 + (words_per - 1) * 8;
        let mut tainted = bytes.clone();
        tainted[first_class_last_word + 7] |= 0x80; // bit 63 of a D=100 tail word
        assert!(BinaryKernel::from_bytes(&tainted).is_err());
        // Byte flips never panic; survivors must stay usable.
        let (_, _) = (&encoder, &compressed);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            if let Ok(back) = BinaryKernel::from_bytes(&flipped) {
                let mut rng = StdRng::seed_from_u64(1);
                let q = BipolarHv::random(back.dim(), &mut rng);
                let _ = back.predict_packed(&q);
            }
        }
    }

    #[test]
    fn validate_against_catches_mismatches() {
        let (encoder, compressed) = setup(10, 5, 4, 64, 3, 12, 23);
        let kernel = BinaryKernel::build(&encoder, &compressed, 0).unwrap();
        kernel
            .validate_against(encoder.layout(), &compressed)
            .unwrap();
        let (_, other_k) = setup(10, 5, 4, 64, 5, 12, 23);
        assert!(kernel.validate_against(encoder.layout(), &other_k).is_err());
        let (_, other_dim) = setup(10, 5, 4, 128, 3, 12, 23);
        assert!(kernel
            .validate_against(encoder.layout(), &other_dim)
            .is_err());
    }

    #[test]
    fn kernel_section_round_trips_through_tags() {
        let (encoder, compressed) = setup(10, 5, 4, 128, 3, 12, 29);
        for spec in [KernelSpec::dense(), KernelSpec::lut(), KernelSpec::binary()] {
            let kernel = build_kernel(&encoder, &compressed, &spec).unwrap();
            let section = kernel.persist().unwrap();
            let back = match &section {
                None => kernel_from_section(KERNEL_SECTION_NONE, &[]).unwrap(),
                Some((tag, payload)) => kernel_from_section(*tag, payload).unwrap(),
            };
            assert_eq!(back.name(), kernel.name());
            assert_eq!(back.size_bytes(), kernel.size_bytes());
            back.validate_against(encoder.layout(), &compressed)
                .unwrap();
        }
        assert!(kernel_from_section(9, &[]).is_err());
    }

    #[test]
    fn dense_and_lut_kernels_agree_bit_for_bit_through_the_seam() {
        let (encoder, compressed) = setup(13, 5, 4, 200, 7, 3, 31);
        let dense = build_kernel(&encoder, &compressed, &KernelSpec::dense()).unwrap();
        let lut = build_kernel(&encoder, &compressed, &KernelSpec::lut()).unwrap();
        assert!(dense.is_exact() && lut.is_exact());
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
        }
    }

    #[test]
    fn boxed_kernels_clone_and_downcast() {
        let (encoder, compressed) = setup(10, 5, 4, 128, 3, 12, 37);
        let kernel = build_kernel(&encoder, &compressed, &KernelSpec::lut()).unwrap();
        let cloned = kernel.clone();
        assert_eq!(cloned.name(), "lut");
        let lut = cloned
            .as_any()
            .downcast_ref::<LutKernel>()
            .expect("downcast");
        assert_eq!(lut.lut().n_classes(), 3);
        assert!(cloned.as_any().downcast_ref::<BinaryKernel>().is_none());
    }
}
