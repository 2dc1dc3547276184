//! Model compression (§IV): fold `k` class hypervectors into (near-)one.
//!
//! Each class `i` gets a random bipolar key `P'_i`; the compressed model is
//! `C = Σ_i P'_i ⊙ C_i` (Eq. 4). A query `H` is scored against class `j` by
//!
//! ```text
//! score_j = Σ_d P'_j[d] · H[d] · C[d]
//!         = H·C_j  +  Σ_{i≠j} Σ_d (P'_j ⊙ P'_i)[d] · H[d] · C_i[d]
//!           ^signal    ^cross-talk noise (≈ 0 for random keys)   (Eq. 5)
//! ```
//!
//! so the `D` multiplications `H[d]·C[d]` are shared by *all* classes and
//! each class costs only sign-flipped accumulation — the paper's inference
//! speedup.
//!
//! ## Decorrelation (§IV-C)
//!
//! HDC class hypervectors are highly correlated (cosines 0.9–1.0, Fig. 8):
//! level hypervectors are shared and neighbouring levels are similar, so
//! every class carries a large common component. Cross-talk noise scales
//! with `‖H ⊙ C_i‖`, so that common mass drowns the small score gaps.
//! Compression therefore removes the common component from the *model*
//! (`C'_i = C_i − C_ave·δ(C_i, C_ave)`) and — symmetrically — projects the
//! common direction out of each *query* before scoring and updating. The
//! query-side projection is the same `D`-wide multiply-accumulate the
//! shared product already needs, so it does not change the §IV cost story.
//!
//! ## Integer whitening
//!
//! Whitening is linear in the query, so it is an exact integer correction
//! of the plain score. With the unit direction in fixed point,
//! `dir_fx[d] = round(dir[d]·2^S)` ([`WHITEN_BITS`] = `S`), the
//! projection `p = H·dir_fx` and the per-class gain
//! `G_c = Σ_d P'_c[d]·dir_fx[d]·C[d]` (the base score of `dir_fx`):
//!
//! ```text
//! score_c(H − (p/2^S)·dir_fx/2^S) = (score_c(H)·2^(2S) − p·G_c) / 2^(2S)
//! ```
//!
//! evaluated in `i128` and divided by the power of two only when cast to
//! `f64`. Both kernels hand their integer base scores and projection to
//! `CompressedModel::finish_scores`, so the score-LUT (which splits `p`
//! per chunk like the class scores, see [`crate::score_lut`]) matches the
//! dense path bit for bit. Retraining updates whiten with the same
//! projection, rounded to nearest. A model without a direction scores its
//! plain integer scores.
//!
//! For `k` beyond [`CompressionConfig::max_classes_per_vector`] classes are
//! packed into multiple combined vectors ("exact mode", §VI-G).

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hdc::classify::argmax_margin;
use hdc::hv::{BipolarHv, DenseHv};
use hdc::model::ClassModel;
use hdc::{HdcError, Result};

use crate::encoder::PositionKeys;

/// Configuration of the compression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionConfig {
    /// Maximum classes folded into one combined hypervector. The paper
    /// finds accuracy is preserved up to 12 (§VI-G); more classes spill
    /// into additional vectors.
    pub max_classes_per_vector: usize,
    /// Apply the §IV-C decorrelation (model- and query-side).
    pub decorrelate: bool,
    /// RNG seed for the `P'` keys. Keys are regenerable from this seed, so
    /// the paper's model-size accounting stores only the combined vectors.
    pub seed: u64,
}

impl CompressionConfig {
    /// Paper defaults: 12 classes per vector, decorrelation on.
    pub fn new() -> Self {
        Self {
            max_classes_per_vector: 12,
            decorrelate: true,
            seed: 0xC0_4F_5E,
        }
    }

    /// Sets the per-vector class budget (1 ⇒ no compression).
    pub fn with_max_classes_per_vector(mut self, m: usize) -> Self {
        self.max_classes_per_vector = m;
        self
    }

    /// Enables or disables decorrelation.
    pub fn with_decorrelate(mut self, on: bool) -> Self {
        self.decorrelate = on;
        self
    }

    /// Sets the key seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for CompressionConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Removes the component common to all classes (§IV-C):
/// `C'_i = C_i − C_ave · δ(C_i, C_ave)`.
///
/// Returns a new model with much lower pairwise class correlation (Fig. 8),
/// which makes the compressed scores robust to cross-talk noise.
///
/// # Errors
///
/// Never fails for a valid model; the signature matches the other model
/// transformations for composability.
pub fn decorrelate(model: &ClassModel) -> Result<ClassModel> {
    let ave = class_average(model);
    let ave_norm = norm_f64(&ave);
    let mut out = Vec::with_capacity(model.n_classes());
    for c in model.classes() {
        let c_norm = c.norm();
        let cos = if ave_norm == 0.0 || c_norm == 0.0 {
            0.0
        } else {
            dot_i32_f64(c.as_slice(), &ave) / (ave_norm * c_norm)
        };
        let values: Vec<i32> = c
            .as_slice()
            .iter()
            .zip(&ave)
            .map(|(&v, a)| (v as f64 - a * cos).round() as i32)
            .collect();
        out.push(DenseHv::from_vec(values));
    }
    ClassModel::from_classes(out)
}

/// Computes the principal common direction of the class matrix by power
/// iteration, returning the unit-norm direction (`None` when the class
/// matrix is degenerate) and the class vectors with it projected out.
fn deflate_classes(model: &ClassModel) -> (Option<Vec<f64>>, Vec<Vec<f64>>) {
    let d = model.dim();
    let mut rows: Vec<Vec<f64>> = model
        .classes()
        .iter()
        .map(|c| c.as_slice().iter().map(|&v| v as f64).collect())
        .collect();
    // Start power iteration from the class mean (this exactly reproduces
    // the paper's average direction when it dominates).
    let mut v = vec![0.0f64; d];
    for row in &rows {
        for (a, &x) in v.iter_mut().zip(row) {
            *a += x;
        }
    }
    if norm_f64(&v) < 1e-9 {
        // Mean vanished (already centred); seed deterministically.
        for (i, a) in v.iter_mut().enumerate() {
            *a = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
    }
    for _ in 0..8 {
        let n = norm_f64(&v);
        if n < 1e-12 {
            break;
        }
        for a in &mut v {
            *a /= n;
        }
        // v ← Σ_i (c_i · v) c_i
        let mut next = vec![0.0f64; d];
        for row in &rows {
            let proj: f64 = row.iter().zip(&v).map(|(x, y)| x * y).sum();
            for (a, &x) in next.iter_mut().zip(row) {
                *a += proj * x;
            }
        }
        v = next;
    }
    let n = norm_f64(&v);
    if n < 1e-9 {
        return (None, rows);
    }
    for a in &mut v {
        *a /= n;
    }
    // Deflate every class.
    for row in &mut rows {
        let proj: f64 = row.iter().zip(&v).map(|(x, y)| x * y).sum();
        for (a, &dir) in row.iter_mut().zip(&v) {
            *a -= proj * dir;
        }
    }
    (Some(v), rows)
}

fn class_average(model: &ClassModel) -> Vec<f64> {
    let k = model.n_classes() as f64;
    let mut ave = vec![0.0f64; model.dim()];
    for c in model.classes() {
        for (a, &v) in ave.iter_mut().zip(c.as_slice()) {
            *a += v as f64;
        }
    }
    for a in &mut ave {
        *a /= k;
    }
    ave
}

fn norm_f64(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn dot_i32_f64(a: &[i32], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, y)| x as f64 * y).sum()
}

/// Largest hypervector dimensionality the `LKC1`/`LKS1` serialized formats
/// accept (2^20). Far above any configuration the paper or the benchmarks
/// use, but small enough that a corrupt length header cannot trigger a
/// multi-GB allocation or a huge key regeneration.
pub const MAX_SERIAL_DIM: usize = 1 << 20;

/// Largest class/group count the serialized formats accept
/// (2^16). Bounds the `P'` key regeneration (`k · dim` bits) a corrupt
/// header could otherwise request.
pub const MAX_SERIAL_CLASSES: usize = 1 << 16;

/// Largest feature count the `LKS1` format accepts (2^20).
pub const MAX_SERIAL_FEATURES: usize = 1 << 20;

/// Ceiling on the total elements (`count × dim`) any deserializer will
/// regenerate from a seed (2^28 ≈ 268M, ~1 GiB of `i32`). Individual
/// header fields can each be in-cap while their *product* — position keys
/// for `⌈n/r⌉` chunks, `q` level hypervectors, `k` class keys — is still
/// absurd; this bounds the product. Serializers apply the same check so a
/// writable artifact is always readable.
pub const MAX_REGEN_ELEMENTS: usize = 1 << 28;

/// Rejects a seeded regeneration of `count × dim` elements that exceeds
/// [`MAX_REGEN_ELEMENTS`], naming the field.
pub(crate) fn check_regen(what: &'static str, count: usize, dim: usize) -> Result<()> {
    if count
        .checked_mul(dim)
        .is_none_or(|n| n > MAX_REGEN_ELEMENTS)
    {
        return Err(HdcError::invalid_config(
            what,
            format!(
                "regenerating {count} x {dim} elements exceeds the \
                 {MAX_REGEN_ELEMENTS}-element limit"
            ),
        ));
    }
    Ok(())
}

/// Converts a count to the `u32` the serialized formats store, rejecting
/// values above `cap` (and, implicitly, anything that would silently
/// truncate) with an error naming the field.
pub(crate) fn serial_u32(what: &'static str, value: usize, cap: usize) -> Result<u32> {
    if value > cap.min(u32::MAX as usize) {
        return Err(HdcError::invalid_config(
            what,
            format!("{value} exceeds the serialized format's limit of {cap}"),
        ));
    }
    Ok(value as u32)
}

/// Per-class signal/noise decomposition of a compressed score (Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalNoise {
    /// The true dot product `H · C_j` (after decorrelation/normalization,
    /// with the query-side projection applied).
    pub signal: f64,
    /// The cross-talk residual `score_j − H·C_j`.
    pub noise: f64,
}

impl SignalNoise {
    /// `|noise| / |signal|`; `f64::INFINITY` when the signal is zero.
    pub fn noise_to_signal(&self) -> f64 {
        if self.signal == 0.0 {
            f64::INFINITY
        } else {
            (self.noise / self.signal).abs()
        }
    }
}

/// Fixed-point precision `S` of the whitening direction:
/// `dir_fx[d] = round(dir[d]·2^S)`. At 24 bits the whitened argmax matches
/// an `f64` projection on the SPEECH profile, and the score-LUT's
/// projection column stays exact up to `D·n ≤ 2^28`
/// ([`crate::score_lut::check_projection_bound`]).
pub const WHITEN_BITS: u32 = 24;

/// The common direction removed by decorrelation, in the two forms the
/// model needs: the unit `f64` vector `LKC1` stores, and its fixed-point
/// image every whitened score and update is computed from.
#[derive(Debug, Clone)]
struct Direction {
    unit: Vec<f64>,
    /// `round(unit[d]·2^S)`.
    fixed: Vec<i64>,
    /// Per-class gains `G_c = Σ_d P'_c[d]·fixed[d]·C[d]`. They depend on
    /// the combined vectors, so an update clears them and the next score
    /// recomputes them once: retraining stages many updates on a copy it
    /// never scores.
    gains: OnceLock<Vec<i64>>,
}

impl Direction {
    fn new(unit: Vec<f64>) -> Self {
        let scale = f64::from(1u32 << WHITEN_BITS);
        let fixed = unit.iter().map(|&x| (x * scale).round() as i64).collect();
        Self {
            unit,
            fixed,
            gains: OnceLock::new(),
        }
    }
}

/// `SIGN_MASKS[b][j]` is `−1` when bit `j` of key byte `b` is set (the
/// dimension holds `−1`) and `0` otherwise: the `i64` lane masks of eight
/// packed key dimensions. 16 KiB of static data.
static SIGN_MASKS: [[i64; 8]; 256] = sign_masks();

const fn sign_masks() -> [[i64; 8]; 256] {
    let mut table = [[0; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut lane = 0;
        while lane < 8 {
            table[byte][lane] = -((byte >> lane) as i64 & 1);
            lane += 1;
        }
        byte += 1;
    }
    table
}

/// `Σ_d key[d]·v[d]` over a packed bipolar key (bit 1 ⇔ −1): the
/// sign-flipped accumulation behind every compressed score, gain and
/// score-LUT entry. `(x ^ m) − m` is `x` for `m = 0` and `−x` for
/// `m = −1`, with one mask per key bit read from [`SIGN_MASKS`] a byte
/// at a time into eight independent lane sums, so the loop vectorizes.
pub(crate) fn signed_sum(v: &[i64], key: &BipolarHv) -> i64 {
    let words = key.words();
    let mut lanes = [0i64; 8];
    let mut add = |v: &[i64], byte: u8| {
        let masks = &SIGN_MASKS[usize::from(byte)];
        for ((acc, &x), &m) in lanes.iter_mut().zip(v).zip(masks) {
            *acc += (x ^ m).wrapping_sub(m);
        }
    };
    let mut v64 = v.chunks_exact(64);
    for (chunk, &word) in (&mut v64).zip(words) {
        for (body, byte) in chunk.chunks_exact(8).zip(word.to_le_bytes()) {
            add(body, byte);
        }
    }
    // The last `D mod 64` dimensions: the final key word, whose last
    // byte may cover fewer than 8 dimensions.
    if let Some(&word) = words.get(v.len() / 64) {
        for (body, byte) in v64.remainder().chunks(8).zip(word.to_le_bytes()) {
            add(body, byte);
        }
    }
    lanes.iter().sum()
}

/// `dir_fx · v` for a fixed-point direction.
fn fixed_dot(fixed: &[i64], v: &DenseHv) -> i64 {
    fixed
        .iter()
        .zip(v.as_slice())
        .map(|(&w, &x)| w * i64::from(x))
        .sum()
}

/// One whitened score, `(base·2^(2S) − projection·gain) / 2^(2S)`: exact
/// in `i128`, then one rounding in the cast to `f64` (the division by a
/// power of two is exact).
fn whitened_score(base: i64, projection: i64, gain: i64) -> f64 {
    const UNIT: f64 = (1u64 << (2 * WHITEN_BITS)) as f64;
    let scaled =
        (i128::from(base) << (2 * WHITEN_BITS)) - i128::from(projection) * i128::from(gain);
    scaled as f64 / UNIT
}

/// A compressed HDC model: one (or a few) combined hypervectors plus the
/// per-class keys and, when decorrelation is on, the stored common
/// direction used to whiten queries.
#[derive(Debug, Clone)]
pub struct CompressedModel {
    config: CompressionConfig,
    keys: PositionKeys,
    /// Class labels per combined vector, in label order.
    groups: Vec<Vec<usize>>,
    /// Group index per class label.
    group_of: Vec<usize>,
    combined: Vec<DenseHv>,
    /// Common direction removed by decorrelation (`None` when
    /// decorrelation is disabled); queries are whitened against it.
    direction: Option<Direction>,
    dim: usize,
}

impl CompressedModel {
    /// Compresses a trained model.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `max_classes_per_vector == 0`.
    pub fn compress(model: &ClassModel, config: &CompressionConfig) -> Result<Self> {
        let _span = obs::span("compress");
        if config.max_classes_per_vector == 0 {
            return Err(HdcError::invalid_config(
                "max_classes_per_vector",
                "must be at least 1",
            ));
        }
        let (direction, prepared) = Self::prepare_classes(model, config)?;
        let k = prepared.len();
        let dim = model.dim();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let keys = PositionKeys::generate(k, dim, &mut rng);
        let n_groups = k.div_ceil(config.max_classes_per_vector);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut group_of = vec![0usize; k];
        for (label, slot) in group_of.iter_mut().enumerate() {
            let g = label / config.max_classes_per_vector;
            groups[g].push(label);
            *slot = g;
        }
        let mut combined = vec![DenseHv::zeros(dim); n_groups];
        for (label, class) in prepared.iter().enumerate() {
            combined[group_of[label]].add_bound(keys.key(label), class);
        }
        Ok(Self {
            config: config.clone(),
            keys,
            groups,
            group_of,
            combined,
            direction: direction.map(Direction::new),
            dim,
        })
    }

    /// The decorrelated, magnitude-normalized class hypervectors the
    /// compression is built from, along with the removed common direction.
    /// Deterministic, so analyses (Eq. 5 noise decomposition) can re-derive
    /// them from the original model.
    fn prepare_classes(
        model: &ClassModel,
        config: &CompressionConfig,
    ) -> Result<(Option<Vec<f64>>, Vec<DenseHv>)> {
        let (direction, rows) = if config.decorrelate {
            deflate_classes(model)
        } else {
            let rows = model
                .classes()
                .iter()
                .map(|c| c.as_slice().iter().map(|&v| v as f64).collect())
                .collect();
            (None, rows)
        };
        // Every class is normalized to the *average* class norm (the
        // fixed-point analogue of the paper's `C'_i = C_i/‖C_i‖`), which
        // keeps the model at its natural magnitude so retraining updates
        // (`± H`) act with a sane effective learning rate.
        let norms: Vec<f64> = rows.iter().map(|r| norm_f64(r)).collect();
        let nonzero: Vec<f64> = norms.iter().copied().filter(|&n| n > 0.0).collect();
        let target = if nonzero.is_empty() {
            1.0
        } else {
            nonzero.iter().sum::<f64>() / nonzero.len() as f64
        };
        let prepared = rows
            .iter()
            .zip(&norms)
            .map(|(r, &n)| {
                if n == 0.0 {
                    DenseHv::from_vec(r.iter().map(|&v| v.round() as i32).collect())
                } else {
                    let s = target / n;
                    DenseHv::from_vec(r.iter().map(|&v| (v * s).round() as i32).collect())
                }
            })
            .collect();
        Ok((direction, prepared))
    }

    /// The query's projection onto the fixed-point direction,
    /// `H·dir_fx` (0 without decorrelation).
    pub(crate) fn projection(&self, query: &DenseHv) -> i64 {
        self.direction
            .as_ref()
            .map_or(0, |dir| fixed_dot(&dir.fixed, query))
    }

    /// `Σ_d P'_c[d]·w[d]·C[d]` for every class `c`: the shared products
    /// `w ⊙ C` once per combined vector (the only multiplies), then
    /// per-class sign-flipped accumulation driven by the packed key words
    /// — exactly the Fig. 11 datapath.
    fn keyed_sums<T: Copy + Into<i64>>(&self, weights: &[T]) -> Vec<i64> {
        let mut sums = vec![0; self.n_classes()];
        let mut v = vec![0i64; self.dim];
        for (g, combined) in self.combined.iter().enumerate() {
            for ((slot, &w), &c) in v.iter_mut().zip(weights).zip(combined.as_slice()) {
                *slot = w.into() * i64::from(c);
            }
            for &label in &self.groups[g] {
                sums[label] = signed_sum(&v, self.keys.key(label));
            }
        }
        sums
    }

    /// The per-class gains `G_c` of the whitening correction — the base
    /// scores of `dir_fx` — computed on first use after compression,
    /// loading or an update.
    fn gains<'a>(&'a self, dir: &'a Direction) -> &'a [i64] {
        dir.gains.get_or_init(|| self.keyed_sums(&dir.fixed))
    }

    /// Final per-class scores from integer base scores `score_c(H)` and
    /// the query's `projection`: the plain scores
    /// without a direction, else `(base_c·2^(2S) − p·G_c) / 2^(2S)`
    /// evaluated in `i128`. The dense path and the score-LUT both finish
    /// through here, so their scores agree bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `base.len() != self.n_classes()`.
    pub(crate) fn finish_scores(&self, base: Vec<i64>, projection: i64) -> Vec<f64> {
        assert_eq!(base.len(), self.n_classes(), "one base score per class");
        // Mapping `i64 → f64` over the owned vector collects in place:
        // finishing allocates nothing.
        match &self.direction {
            None => base.into_iter().map(|b| b as f64).collect(),
            Some(dir) => {
                let gains = self.gains(dir);
                base.into_iter()
                    .enumerate()
                    .map(|(c, b)| whitened_score(b, projection, gains[c]))
                    .collect()
            }
        }
    }

    /// The query with the common direction projected out, rounded to
    /// nearest per dimension — the integer query retraining updates
    /// apply (`H[d] − round(p·dir_fx[d] / 2^(2S))`). The query itself
    /// without decorrelation.
    fn whiten(&self, query: &DenseHv) -> DenseHv {
        let Some(dir) = &self.direction else {
            return query.clone();
        };
        let p = i128::from(self.projection(query));
        let half = 1i128 << (2 * WHITEN_BITS - 1);
        query
            .as_slice()
            .iter()
            .zip(&dir.fixed)
            .map(|(&h, &w)| h - ((p * i128::from(w) + half) >> (2 * WHITEN_BITS)) as i32)
            .collect()
    }

    /// Scores every class against a query: `D` multiplications per combined
    /// vector (plus one `D`-wide projection when decorrelating), then
    /// sign-flipped accumulation per class, finished by
    /// [`CompressedModel::finish_scores`].
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on dimension disagreement.
    pub fn scores(&self, query: &DenseHv) -> Result<Vec<f64>> {
        let _span = obs::span("score");
        obs::counter("score.queries", 1);
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: query.dim(),
            });
        }
        let base = self.keyed_sums(query.as_slice());
        Ok(self.finish_scores(base, self.projection(query)))
    }

    /// Predicts the best-matching class.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on dimension disagreement.
    pub fn predict(&self, query: &DenseHv) -> Result<usize> {
        Ok(argmax_margin(&self.scores(query)?).0)
    }

    /// Eq. 5 decomposition for each class: compares the compressed score to
    /// the exact dot product against the class's prepared hypervector.
    ///
    /// `model` must be the same model this was compressed from.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::DimensionMismatch`] on dimension disagreement.
    pub fn signal_noise(&self, model: &ClassModel, query: &DenseHv) -> Result<Vec<SignalNoise>> {
        let scores = self.scores(query)?;
        let (_, prepared) = Self::prepare_classes(model, &self.config)?;
        let projection = self.projection(query);
        Ok(scores
            .iter()
            .zip(&prepared)
            .map(|(&score, class)| {
                // The same integer whitening as the score, with the
                // prepared class in place of the keyed combined vector.
                let base = query.dot(class);
                let signal = match &self.direction {
                    None => base as f64,
                    Some(dir) => whitened_score(base, projection, fixed_dot(&dir.fixed, class)),
                };
                SignalNoise {
                    signal,
                    noise: score - signal,
                }
            })
            .collect())
    }

    /// Applies one retraining update `C += P'_correct ⊙ H − P'_wrong ⊙ H`
    /// directly on the compressed model (§IV-D). The query is whitened with
    /// the stored common direction first, keeping updates in the same
    /// subspace the scores are computed in.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::UnknownClass`] / [`HdcError::DimensionMismatch`]
    /// on bad arguments.
    pub fn update(&mut self, correct: usize, wrong: usize, query: &DenseHv) -> Result<()> {
        self.check_update(correct, wrong, query)?;
        let h = self.whiten(query);
        self.clear_gains();
        let gc = self.group_of[correct];
        let gw = self.group_of[wrong];
        self.combined[gc].add_bound(self.keys.key(correct), &h);
        self.combined[gw].sub_bound(self.keys.key(wrong), &h);
        Ok(())
    }

    /// The paper's hardware update rule (§V-C): per dimension, `ΔP'·H` is
    /// replaced by negate/shift cases selected by the binary key bits so no
    /// multiplier is needed. The table as printed in the paper
    /// (`(0,0) → −(h≫1)`, mixed → `h`, `(1,1) → h≫1`) is direction-blind
    /// for mixed bits and inconsistent with the exact arithmetic
    /// (`ΔP' ∈ {−2, 0, +2}`); we implement the direction-corrected reading:
    ///
    /// ```text
    /// (P'_correct, P'_wrong) = (1, 0) →  h      // toward the correct key
    /// (P'_correct, P'_wrong) = (0, 1) → −h      // away from the wrong key
    /// (1, 1)                          →  h ≫ 1  // small nudge (paper table)
    /// (0, 0)                          → −(h ≫ 1)
    /// ```
    ///
    /// This keeps the printed table's shift-based equal-bit nudges while
    /// restoring the update direction; it is a ≈½-rate approximation of
    /// [`CompressedModel::update`], and the `ablation_update_rule` bench
    /// quantifies the accuracy difference. Only defined when both classes
    /// share a combined vector; otherwise this falls back to the exact rule
    /// (the hardware situation — a single compressed model — always shares).
    ///
    /// # Errors
    ///
    /// Same as [`CompressedModel::update`].
    pub fn update_paper_shift(
        &mut self,
        correct: usize,
        wrong: usize,
        query: &DenseHv,
    ) -> Result<()> {
        self.check_update(correct, wrong, query)?;
        let gc = self.group_of[correct];
        let gw = self.group_of[wrong];
        if gc != gw {
            return self.update(correct, wrong, query);
        }
        let h = self.whiten(query);
        self.clear_gains();
        let kc = self.keys.key(correct).clone();
        let kw = self.keys.key(wrong).clone();
        let combined = &mut self.combined[gc];
        for d in 0..self.dim {
            let hd = h.get(d);
            // Paper's binary representation: bit 1 ⇔ +1, bit 0 ⇔ −1.
            let bc = !kc.is_negative(d);
            let bw = !kw.is_negative(d);
            let delta = match (bc, bw) {
                (false, false) => -(hd >> 1),
                (true, true) => hd >> 1,
                (true, false) => hd,
                (false, true) => -hd,
            };
            combined.as_mut_slice()[d] += delta;
        }
        Ok(())
    }

    /// Drops the whitening gains after the combined vectors change; the
    /// next score recomputes them.
    fn clear_gains(&mut self) {
        if let Some(dir) = &mut self.direction {
            dir.gains.take();
        }
    }

    fn check_update(&self, correct: usize, wrong: usize, query: &DenseHv) -> Result<()> {
        let k = self.n_classes();
        if correct >= k || wrong >= k {
            return Err(HdcError::UnknownClass {
                label: correct.max(wrong),
                n_classes: k,
            });
        }
        if query.dim() != self.dim {
            return Err(HdcError::DimensionMismatch {
                expected: self.dim,
                actual: query.dim(),
            });
        }
        Ok(())
    }

    /// Number of classes `k`.
    pub fn n_classes(&self) -> usize {
        self.group_of.len()
    }

    /// The compression configuration this model was built with (used by
    /// the streaming trainer to rebuild versions under identical knobs).
    pub fn compression_config(&self) -> &CompressionConfig {
        &self.config
    }

    /// Number of combined hypervectors (1 in fully compressed mode,
    /// `⌈k/12⌉` in exact mode).
    pub fn n_vectors(&self) -> usize {
        self.combined.len()
    }

    /// Hypervector dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The combined hypervector of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g >= self.n_vectors()`.
    pub fn combined(&self, g: usize) -> &DenseHv {
        &self.combined[g]
    }

    /// The key `P'_label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes()`.
    pub fn key(&self, label: usize) -> &BipolarHv {
        self.keys.key(label)
    }

    /// The combined-vector group holding class `label`.
    ///
    /// # Panics
    ///
    /// Panics if `label >= self.n_classes()`.
    pub fn group_of(&self, label: usize) -> usize {
        self.group_of[label]
    }

    /// Number of common directions removed by decorrelation: 1, or 0
    /// when `decorrelate=false` or the class matrix is degenerate.
    pub fn n_directions(&self) -> usize {
        usize::from(self.direction.is_some())
    }

    /// The fixed-point whitening direction `dir_fx` (`None` without
    /// decorrelation): the weights of the score-LUT's projection column.
    pub(crate) fn direction_fixed(&self) -> Option<&[i64]> {
        self.direction.as_ref().map(|dir| dir.fixed.as_slice())
    }

    /// Model size in bytes under the paper's accounting: only the combined
    /// vectors are stored (keys regenerate from [`CompressionConfig::seed`];
    /// the common direction adds one more vector when decorrelating — see
    /// [`CompressedModel::size_bytes_with_keys`] for the all-in number).
    pub fn size_bytes(&self) -> usize {
        self.n_vectors() * self.dim * std::mem::size_of::<i32>()
    }

    /// Model size including materialized binary keys (1 bit/dim/class) and
    /// the stored common direction (int32 per dim) when present.
    pub fn size_bytes_with_keys(&self) -> usize {
        let common = self.n_directions() * self.dim * std::mem::size_of::<i32>();
        self.size_bytes() + self.n_classes() * self.dim.div_ceil(8) + common
    }

    /// Serializes the compressed model (`LKC1` format): configuration,
    /// combined vectors, and the whitening direction. The `P'` keys are *not*
    /// stored — they regenerate from [`CompressionConfig::seed`], which is
    /// exactly the paper's model-size accounting.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when a count exceeds the u32
    /// headers of the format (or the [`MAX_SERIAL_DIM`] /
    /// [`MAX_SERIAL_CLASSES`] caps [`CompressedModel::from_bytes`]
    /// enforces), instead of silently truncating.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        check_regen("n_classes", self.n_classes(), self.dim)?;
        let mut out = Vec::new();
        out.extend_from_slice(b"LKC1");
        let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        w32(&mut out, serial_u32("dim", self.dim, MAX_SERIAL_DIM)?);
        w32(
            &mut out,
            serial_u32(
                "max_classes_per_vector",
                self.config.max_classes_per_vector,
                MAX_SERIAL_CLASSES,
            )?,
        );
        out.push(u8::from(self.config.decorrelate));
        // Retired fields keep their bytes: `decorrelate_rounds` is always
        // 1 and the scale mode is always average-norm (tag 0, value 0).
        w32(&mut out, 1);
        out.push(0);
        out.extend_from_slice(&0i32.to_le_bytes());
        out.extend_from_slice(&self.config.seed.to_le_bytes());
        w32(
            &mut out,
            serial_u32("n_classes", self.n_classes(), MAX_SERIAL_CLASSES)?,
        );
        w32(
            &mut out,
            serial_u32("n_vectors", self.n_vectors(), MAX_SERIAL_CLASSES)?,
        );
        for combined in &self.combined {
            for &v in combined.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        w32(&mut out, self.n_directions() as u32);
        if let Some(dir) = &self.direction {
            for &v in &dir.unit {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Deserializes a model written by [`CompressedModel::to_bytes`].
    ///
    /// Length headers are validated against the remaining stream length
    /// and the [`MAX_SERIAL_DIM`] / [`MAX_SERIAL_CLASSES`] caps before any
    /// allocation, so corrupt or hostile headers produce an error rather
    /// than a multi-GB allocation. Trailing bytes after the last section
    /// are rejected, and so is a whitening direction that is not finite
    /// with unit norm.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for a malformed, truncated, or
    /// over-long byte stream, and for a retired field value:
    /// `decorrelate_rounds` other than 1, a scale mode other than
    /// average-norm, or more than one whitening direction.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        struct Reader<'a> {
            bytes: &'a [u8],
            pos: usize,
        }
        impl<'a> Reader<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8]> {
                if self.pos + n > self.bytes.len() {
                    return Err(HdcError::invalid_dataset(
                        "truncated compressed-model stream",
                    ));
                }
                let out = &self.bytes[self.pos..self.pos + n];
                self.pos += n;
                Ok(out)
            }
            fn u32(&mut self) -> Result<u32> {
                Ok(u32::from_le_bytes(
                    self.take(4)?.try_into().expect("len checked"),
                ))
            }
            fn u8(&mut self) -> Result<u8> {
                Ok(self.take(1)?[0])
            }
            fn i32(&mut self) -> Result<i32> {
                Ok(i32::from_le_bytes(
                    self.take(4)?.try_into().expect("len checked"),
                ))
            }
            fn u64(&mut self) -> Result<u64> {
                Ok(u64::from_le_bytes(
                    self.take(8)?.try_into().expect("len checked"),
                ))
            }
            fn f64(&mut self) -> Result<f64> {
                Ok(f64::from_le_bytes(
                    self.take(8)?.try_into().expect("len checked"),
                ))
            }
            /// Errors unless at least `count * width` bytes remain — called
            /// before bulk preallocation so a corrupt header fails here
            /// instead of in the allocator.
            fn expect_remaining(&self, count: usize, width: usize, what: &str) -> Result<()> {
                let needed = count.checked_mul(width);
                if needed.is_none_or(|n| n > self.bytes.len() - self.pos) {
                    return Err(HdcError::invalid_dataset(format!(
                        "compressed-model stream too short for {what}"
                    )));
                }
                Ok(())
            }
        }
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != b"LKC1" {
            return Err(HdcError::invalid_dataset(
                "bad magic: not an LKC1 compressed model",
            ));
        }
        let dim = r.u32()? as usize;
        if dim == 0 {
            return Err(HdcError::invalid_dataset(
                "zero-dimensional compressed model",
            ));
        }
        if dim > MAX_SERIAL_DIM {
            return Err(HdcError::invalid_dataset(format!(
                "dim {dim} exceeds the format limit of {MAX_SERIAL_DIM}"
            )));
        }
        let max_classes_per_vector = r.u32()? as usize;
        let decorrelate = r.u8()? != 0;
        let decorrelate_rounds = r.u32()?;
        if decorrelate_rounds != 1 {
            return Err(HdcError::invalid_dataset(format!(
                "decorrelate_rounds {decorrelate_rounds} is retired: \
                 decorrelation removes exactly one direction"
            )));
        }
        let (scale_tag, scale_value) = (r.u8()?, r.i32()?);
        if (scale_tag, scale_value) != (0, 0) {
            return Err(HdcError::invalid_dataset(format!(
                "scale mode tag {scale_tag} (value {scale_value}) is retired: \
                 classes always normalize to the average norm"
            )));
        }
        let seed = r.u64()?;
        let config = CompressionConfig {
            max_classes_per_vector,
            decorrelate,
            seed,
        };
        if config.max_classes_per_vector == 0 {
            return Err(HdcError::invalid_dataset("zero classes per vector"));
        }
        let k = r.u32()? as usize;
        let n_groups = r.u32()? as usize;
        if k == 0 || n_groups != k.div_ceil(config.max_classes_per_vector) {
            return Err(HdcError::invalid_dataset("inconsistent class/group counts"));
        }
        if k > MAX_SERIAL_CLASSES {
            return Err(HdcError::invalid_dataset(format!(
                "n_classes {k} exceeds the format limit of {MAX_SERIAL_CLASSES}"
            )));
        }
        check_regen("n_classes", k, dim)?;
        r.expect_remaining(n_groups.saturating_mul(dim), 4, "combined vectors")?;
        let mut combined = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let mut values = Vec::with_capacity(dim);
            for _ in 0..dim {
                values.push(r.i32()?);
            }
            combined.push(DenseHv::from_vec(values));
        }
        let direction = match r.u32()? {
            0 => None,
            1 => {
                r.expect_remaining(dim, 8, "whitening direction")?;
                let mut dir = Vec::with_capacity(dim);
                for _ in 0..dim {
                    dir.push(r.f64()?);
                }
                // A NaN entry would make every whitened score NaN (and the
                // argmax class 0); a huge one would swamp the scores.
                if !dir.iter().all(|v| v.is_finite()) || (norm_f64(&dir) - 1.0).abs() > 1e-6 {
                    return Err(HdcError::invalid_dataset(
                        "whitening direction must be finite with unit norm",
                    ));
                }
                Some(Direction::new(dir))
            }
            n => {
                return Err(HdcError::invalid_dataset(format!(
                    "n_directions {n} is retired: decorrelation stores one \
                     whitening direction (decorrelate_rounds = 1)"
                )))
            }
        };
        if r.pos != bytes.len() {
            return Err(HdcError::invalid_dataset(format!(
                "{} trailing byte(s) after compressed model (offset {})",
                bytes.len() - r.pos,
                r.pos
            )));
        }
        // Regenerate keys and grouping deterministically from the config.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let keys = PositionKeys::generate(k, dim, &mut rng);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut group_of = vec![0usize; k];
        for (label, slot) in group_of.iter_mut().enumerate() {
            let g = label / config.max_classes_per_vector;
            groups[g].push(label);
            *slot = g;
        }
        Ok(Self {
            config,
            keys,
            groups,
            group_of,
            combined,
            direction,
            dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A model of `k` near-orthogonal random classes at dimension `d`.
    fn random_model(k: usize, d: usize, seed: u64) -> ClassModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes = (0..k)
            .map(|_| DenseHv::from_vec((0..d).map(|_| rng.gen_range(-40..=40)).collect()))
            .collect();
        ClassModel::from_classes(classes).unwrap()
    }

    /// A model of `k` highly correlated classes (shared component + id).
    fn correlated_model(
        k: usize,
        d: usize,
        shared_range: i32,
        id_range: i32,
        seed: u64,
    ) -> ClassModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let shared: Vec<i32> = (0..d)
            .map(|_| rng.gen_range(-shared_range..=shared_range))
            .collect();
        let classes = (0..k)
            .map(|_| {
                DenseHv::from_vec(
                    shared
                        .iter()
                        .map(|&s| s + rng.gen_range(-id_range..=id_range))
                        .collect(),
                )
            })
            .collect();
        ClassModel::from_classes(classes).unwrap()
    }

    #[test]
    fn compressed_prediction_matches_full_model_on_clear_queries() {
        let model = random_model(6, 4000, 1);
        let compressed =
            CompressedModel::compress(&model, &CompressionConfig::new().with_decorrelate(false))
                .unwrap();
        for label in 0..6 {
            let query = model.class(label).clone();
            assert_eq!(model.predict(&query).unwrap(), label);
            assert_eq!(compressed.predict(&query).unwrap(), label, "class {label}");
        }
    }

    #[test]
    fn noise_is_small_relative_to_signal() {
        let model = random_model(4, 8000, 2);
        let cfg = CompressionConfig::new().with_decorrelate(false);
        let compressed = CompressedModel::compress(&model, &cfg).unwrap();
        let query = model.class(0).clone();
        let sn = compressed.signal_noise(&model, &query).unwrap();
        assert!(sn[0].signal > 0.0);
        assert!(
            sn[0].noise_to_signal() < 0.2,
            "n/s = {}",
            sn[0].noise_to_signal()
        );
    }

    #[test]
    fn noise_grows_with_class_count() {
        let d = 4000;
        let mut ratios = Vec::new();
        for &k in &[2usize, 12, 48] {
            // Single-seed ratios are high-variance; average a few seeds so
            // the monotone trend is the signal being tested, not the draw.
            let mut ratio = 0.0;
            for seed in 0..5 {
                let model = random_model(k, d, seed);
                let cfg = CompressionConfig::new()
                    .with_decorrelate(false)
                    .with_max_classes_per_vector(k); // force single vector
                let compressed = CompressedModel::compress(&model, &cfg).unwrap();
                let query = model.class(0).clone();
                let sn = compressed.signal_noise(&model, &query).unwrap();
                ratio += sn[0].noise_to_signal();
            }
            ratios.push(ratio / 5.0);
        }
        assert!(
            ratios[0] < ratios[2],
            "noise should grow with k: {ratios:?}"
        );
    }

    #[test]
    fn exact_mode_splits_into_expected_vector_count() {
        let model = random_model(26, 500, 4);
        let compressed = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        assert_eq!(compressed.n_vectors(), 3); // ⌈26/12⌉
        assert_eq!(compressed.n_classes(), 26);
        assert_eq!(compressed.n_directions(), 1);
        let single = CompressedModel::compress(
            &model,
            &CompressionConfig::new().with_max_classes_per_vector(26),
        )
        .unwrap();
        assert_eq!(single.n_vectors(), 1);
    }

    #[test]
    fn size_accounting_matches_paper_model() {
        let model = random_model(12, 2000, 5);
        let compressed = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        assert_eq!(model.size_bytes() / compressed.size_bytes(), 12);
        assert!(compressed.size_bytes_with_keys() > compressed.size_bytes());
    }

    #[test]
    fn decorrelation_reduces_class_correlation() {
        let model = correlated_model(5, 2000, 50, 5, 6);
        let decorrelated = decorrelate(&model).unwrap();
        assert!(model.class_correlation() > 0.9);
        assert!(
            decorrelated.class_correlation() < 0.5,
            "correlation after: {}",
            decorrelated.class_correlation()
        );
    }

    #[test]
    fn decorrelation_rescues_compressed_accuracy_on_correlated_classes() {
        // With heavy class correlation, compression *without* decorrelation
        // misclassifies many class prototypes; with decorrelation (including
        // query whitening) they all survive (Fig. 8's motivation).
        let model = correlated_model(8, 4000, 60, 6, 7);
        let with = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        let without =
            CompressedModel::compress(&model, &CompressionConfig::new().with_decorrelate(false))
                .unwrap();
        let count_correct = |cm: &CompressedModel| {
            (0..8)
                .filter(|&label| cm.predict(model.class(label)).unwrap() == label)
                .count()
        };
        let with_acc = count_correct(&with);
        let without_acc = count_correct(&without);
        assert!(
            with_acc >= 7,
            "decorrelated compression too weak: {with_acc}/8"
        );
        assert!(
            with_acc >= without_acc,
            "decorrelation should not hurt: {with_acc} vs {without_acc}"
        );
    }

    #[test]
    fn update_moves_decision_toward_correct_class() {
        let model = random_model(4, 2000, 8);
        let mut compressed =
            CompressedModel::compress(&model, &CompressionConfig::new().with_decorrelate(false))
                .unwrap();
        let query = model.class(2).clone();
        let before = compressed.scores(&query).unwrap();
        compressed.update(2, 0, &query).unwrap();
        let after = compressed.scores(&query).unwrap();
        assert!(after[2] > before[2]);
        assert!(after[0] < before[0]);
    }

    #[test]
    fn whitened_update_stays_in_decorrelated_subspace() {
        // After an update with decorrelation on, scores of unrelated classes
        // move much less than the two updated classes.
        let model = correlated_model(6, 4000, 60, 8, 9);
        let mut compressed = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        let query = model.class(1).clone();
        let before = compressed.scores(&query).unwrap();
        compressed.update(1, 2, &query).unwrap();
        let after = compressed.scores(&query).unwrap();
        let moved_target = (after[1] - before[1]).abs() + (after[2] - before[2]).abs();
        let moved_other = (after[4] - before[4]).abs();
        assert!(
            moved_target > moved_other,
            "target movement {moved_target} vs bystander {moved_other}"
        );
        assert!(after[1] > before[1]);
    }

    #[test]
    fn paper_shift_update_also_moves_scores_but_differs_from_exact() {
        let model = random_model(4, 2000, 9);
        let cfg = CompressionConfig::new()
            .with_decorrelate(false)
            .with_max_classes_per_vector(4);
        let mut exact = CompressedModel::compress(&model, &cfg).unwrap();
        let mut shift = exact.clone();
        let query = model.class(1).clone();
        exact.update(1, 3, &query).unwrap();
        shift.update_paper_shift(1, 3, &query).unwrap();
        let se = exact.scores(&query).unwrap();
        let ss = shift.scores(&query).unwrap();
        assert!(ss[1] > 0.0);
        assert_ne!(exact.combined(0), shift.combined(0));
        assert!(se[1] > 0.0);
    }

    #[test]
    fn rejects_invalid_configs_and_arguments() {
        let model = random_model(3, 100, 10);
        assert!(CompressedModel::compress(
            &model,
            &CompressionConfig::new().with_max_classes_per_vector(0)
        )
        .is_err());
        let mut cm = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        assert!(cm.scores(&DenseHv::zeros(5)).is_err());
        assert!(cm.update(9, 0, &DenseHv::zeros(100)).is_err());
        assert!(cm.update(0, 1, &DenseHv::zeros(7)).is_err());
    }

    #[test]
    fn config_builder_round_trips() {
        let c = CompressionConfig::new()
            .with_max_classes_per_vector(6)
            .with_decorrelate(false)
            .with_seed(99);
        assert_eq!(c.max_classes_per_vector, 6);
        assert!(!c.decorrelate);
        assert_eq!(c.seed, 99);
        assert_eq!(CompressionConfig::default(), CompressionConfig::new());
    }

    #[test]
    fn compressed_model_round_trips_through_bytes() {
        let model = correlated_model(7, 600, 40, 6, 21);
        let cm = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        let bytes = cm.to_bytes().unwrap();
        let back = CompressedModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.n_classes(), cm.n_classes());
        assert_eq!(back.n_vectors(), cm.n_vectors());
        for g in 0..cm.n_vectors() {
            assert_eq!(back.combined(g), cm.combined(g));
        }
        // Predictions (which exercise keys + whitening) must agree.
        for label in 0..7 {
            let q = model.class(label).clone();
            assert_eq!(back.predict(&q).unwrap(), cm.predict(&q).unwrap());
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(CompressedModel::from_bytes(b"nope").is_err());
        let model = random_model(3, 64, 22);
        let cm = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        let bytes = cm.to_bytes().unwrap();
        assert!(CompressedModel::from_bytes(&bytes[..bytes.len() - 5]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(CompressedModel::from_bytes(&bad).is_err());
    }

    #[test]
    fn signed_sum_matches_reference() {
        let mut rng = StdRng::seed_from_u64(30);
        for dim in [1usize, 7, 64, 100, 2000] {
            let key = crate::encoder::PositionKeys::generate(1, dim, &mut rng);
            let key = key.key(0);
            let v: Vec<i64> = (0..dim).map(|_| rng.gen_range(-1000i64..1000)).collect();
            let reference: i64 = v
                .iter()
                .enumerate()
                .map(|(d, &x)| if key.is_negative(d) { -x } else { x })
                .sum();
            assert_eq!(signed_sum(&v, key), reference, "dim {dim}");
        }
    }

    #[test]
    fn integer_whitening_matches_the_f64_projection() {
        // The fixed-point correction reproduces the f64 whitened score to
        // well within a unit, and the integer query update rounds the f64
        // whitened query almost everywhere.
        let model = correlated_model(6, 2000, 60, 8, 12);
        let cm = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        let dir = &cm.direction.as_ref().expect("decorrelated").unit;
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let query = DenseHv::from_vec((0..2000).map(|_| rng.gen_range(-60..=60)).collect());
            let proj: f64 = query
                .as_slice()
                .iter()
                .zip(dir)
                .map(|(&h, &d)| f64::from(h) * d)
                .sum();
            let h: Vec<f64> = query
                .as_slice()
                .iter()
                .zip(dir)
                .map(|(&x, &d)| f64::from(x) - proj * d)
                .collect();
            let scores = cm.scores(&query).unwrap();
            for (label, &score) in scores.iter().enumerate() {
                let c = cm.combined(cm.group_of(label)).as_slice();
                let key = cm.key(label);
                let reference: f64 = (0..2000)
                    .map(|d| {
                        let v = h[d] * f64::from(c[d]);
                        if key.is_negative(d) {
                            -v
                        } else {
                            v
                        }
                    })
                    .sum();
                assert!(
                    (score - reference).abs() < 1e-3 * reference.abs().max(1.0),
                    "class {label}: {score} vs {reference}"
                );
            }
            let whitened = cm.whiten(&query);
            let differing = h
                .iter()
                .zip(whitened.as_slice())
                .filter(|(&f, &i)| f.round() as i32 != i)
                .count();
            assert!(differing <= 2, "{differing} dimensions round differently");
        }
    }

    #[test]
    fn gains_follow_updates() {
        // An update clears the cached gains; the next score recomputes
        // them from the updated combined vectors, so a model updated in
        // place scores like a fresh load of the same bytes.
        let model = correlated_model(5, 600, 40, 6, 14);
        let mut cm = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        let query = model.class(3).clone();
        let _ = cm.scores(&query).unwrap();
        cm.update(3, 1, &query).unwrap();
        cm.update_paper_shift(2, 4, &query).unwrap();
        let reloaded = CompressedModel::from_bytes(&cm.to_bytes().unwrap()).unwrap();
        assert_eq!(cm.scores(&query).unwrap(), reloaded.scores(&query).unwrap());
    }
}
